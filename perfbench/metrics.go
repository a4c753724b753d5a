package main

import (
	"runtime"
	"time"
)

// layerMetrics derives the per-layer metrics. Per-batch figures are
// medians over the traced max-rate phase's processed batches; stream lag,
// replica lag and query figures come from the traced open-loop phase;
// process figures from the untraced max-rate phase. A layer a workload
// does not run reports 0.
func layerMetrics(w *workload, in *input, plain, maxRate, open *phaseResult, bs []batchBudget) map[string]metric {
	m := map[string]metric{}
	perBatch := func(name, unit string, f func(b batchBudget) float64) {
		m[name] = metric{medianOf(bs, f), unit}
	}
	incl := func(names ...string) func(b batchBudget) float64 {
		return func(b batchBudget) float64 {
			var d time.Duration
			for _, n := range names {
				d += b.incl[n]
			}
			return ms(d)
		}
	}
	perBatch("core.batch_ms", "ms", func(b batchBudget) float64 { return ms(b.batch) })
	perBatch("core.snapshot_build_ms", "ms", incl("core.snapshot_build"))
	perBatch("core.delta_diff_ms", "ms", incl("core.delta_diff"))
	perBatch("core.global_sort_ms", "ms", incl(gapSort))
	perBatch("core.global_update_ms", "ms", incl("core.global_update"))
	// The tail holds the periodic checkpoint, which a median over batches
	// would skip: it is reported as a mean per batch.
	var tail float64
	for _, b := range bs {
		tail += incl(gapTail, "checkpoint.encode")(b)
	}
	m["core.tail_ms"] = metric{rate(tail, float64(len(bs))), "ms"}
	perBatch("core.unattributed_ms", "ms", func(b batchBudget) float64 { return ms(b.unattributed) })
	perBatch("stream.source_ms", "ms", incl("stream.source"))
	perBatch("mbsp.broadcast_ms", "ms", incl("mbsp.broadcast"))
	perBatch("mbsp.assign_stage_ms", "ms", incl("mbsp.assign_stage"))
	perBatch("mbsp.shuffle_ms", "ms", incl(gapShuffle))
	perBatch("mbsp.local_stage_ms", "ms", incl("mbsp.local_stage"))
	perBatch("ops.assign_task_ms", "ms", incl("ops.assign_task"))
	perBatch("ops.local_task_ms", "ms", incl("ops.local_task"))
	perBatch("ops.worker_snapshot_ms", "ms", incl("ops.worker_snapshot"))
	perBatch("serve.publish_ms", "ms", incl("serve.publish"))
	perBatch("subscribe.hub_publish_ms", "ms", incl("subscribe.hub_publish"))
	// Transport: the assign stage's wall minus its slowest task.
	transport := make([]float64, 0, len(bs))
	checkpoints := []float64{}
	for _, b := range bs {
		transport = append(transport, ms(b.incl["mbsp.assign_stage"]-b.maxSpan["ops.assign_task"]))
		if b.count["checkpoint.encode"] > 0 {
			checkpoints = append(checkpoints, ms(b.incl["checkpoint.encode"]))
		}
	}
	m["rpcexec.transport_ms"] = metric{median(transport), "ms"}
	m["checkpoint.encode_ms"] = metric{median(checkpoints), "ms"}

	var initDur time.Duration
	var assignItems int
	var assignTime time.Duration
	for _, s := range maxRate.spans {
		switch s.Name {
		case "core.init":
			initDur += s.dur()
		case "ops.assign_task":
			assignItems += s.Items
			assignTime += s.dur()
		}
	}
	m["core.init_s"] = metric{initDur.Seconds(), "s"}
	m["ops.assign_rps"] = metric{rate(float64(assignItems), assignTime.Seconds()), "records/s"}

	m["mbsp.task_skew"] = metric{median(maxRate.exec.skew), "ratio"}
	m["mbsp.task_retries"] = metric{float64(maxRate.exec.retries), "count"}

	batches := float64(maxRate.stats.Batches)
	m["rpcexec.bytes_out_per_batch"] = metric{rate(float64(maxRate.netSent), batches), "bytes"}
	m["rpcexec.bytes_in_per_batch"] = metric{rate(float64(maxRate.netRecvd), batches), "bytes"}
	m["rpcexec.delta_hit_ratio"] = metric{rate(float64(maxRate.bcast.Deltas), float64(maxRate.bcast.Deltas+maxRate.bcast.Fulls)), "ratio"}

	m["stream.lag_p95_ms"] = metric{percentileOf(open.lateness, 95).Value, "ms"}
	sizes := make([]float64, 0, len(in.sizes))
	for _, n := range in.sizes {
		sizes = append(sizes, float64(n))
	}
	m["stream.records_per_batch"] = metric{median(sizes), "records"}

	m["serve.shed_ratio"] = metric{rate(float64(open.admission.Shed), float64(open.admission.Admitted+open.admission.Shed)), "ratio"}
	m["serve.query_latency_p50_ms"] = metric{percentileOf(open.queryLatency, 50).Value, "ms"}
	m["serve.query_latency_p99_ms"] = metric{percentileOf(open.queryLatency, 99).Value, "ms"}
	m["serve.query_rps"] = metric{rate(float64(open.queries), open.queryWall.Seconds()), "queries/s"}
	m["subscribe.replica_lag_p50_ms"] = metric{percentileOf(open.replicaLag, 50).Value, "ms"}
	m["subscribe.replica_lag_p95_ms"] = metric{percentileOf(open.replicaLag, 95).Value, "ms"}
	sent := float64(maxRate.hub.DeltasSent + maxRate.hub.SnapshotsSent)
	m["subscribe.bytes_per_version"] = metric{rate(float64(maxRate.hub.BytesSent), sent), "bytes"}
	m["subscribe.snapshot_ratio"] = metric{rate(float64(maxRate.hub.SnapshotsSent), sent), "ratio"}
	var applies []float64
	for _, s := range maxRate.spans {
		if s.Name == "subscribe.replica_apply" || s.Name == "subscribe.replica_snapshot" {
			applies = append(applies, ms(s.dur()))
		}
	}
	m["subscribe.replica_apply_ms"] = metric{median(applies), "ms"}

	pu := plain.proc
	m["proc.cpu_util"] = metric{rate(pu.cpu.Seconds(), pu.wall.Seconds()*float64(runtime.NumCPU())), "ratio"}
	m["proc.alloc_mb_per_krec"] = metric{rate(float64(pu.alloc)/(1<<20), float64(plain.stats.Records)/1000), "MB"}
	m["proc.gc_pause_ms_per_s"] = metric{rate(ms(pu.gcPause), pu.wall.Seconds()), "ms/s"}

	untracedRPS := median(windowedRate(plain.marks, throughputWindows))
	tracedRPS := median(windowedRate(maxRate.marks, throughputWindows))
	m["trace.overhead_pct"] = metric{100 * rate(tracedRPS-untracedRPS, untracedRPS), "%"}
	return m
}

// rate is a/b, or 0 when b is 0.
func rate(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
