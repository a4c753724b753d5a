package main

import (
	"fmt"

	"diststream/internal/datagen"
	"diststream/internal/harness"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// workload is one configuration of the system under test. Every workload
// keeps the system's defaults — BSP schedule, serial global update,
// batched assign — so a change to a default is measured as users get it.
type workload struct {
	name   string
	preset datagen.Preset
	algo   string
	// tcp runs the stages on in-process rpcexec workers over loopback TCP;
	// otherwise on an mbsp.LocalExecutor.
	tcp     bool
	workers int
	delta   bool
	// serveTier publishes through serve.Registry and a subscribe.Hub, with
	// one replica subscriber, one HTTP query client in the open-loop phase,
	// and a checkpoint every checkpointEvery batches.
	serveTier       bool
	checkpointEvery int
	// virtualRate is the records per virtual second the generator stamps;
	// batchSeconds the batch interval, so a batch holds their product.
	virtualRate  float64
	batchSeconds float64
	initRecords  int
	// base is how many records the generator makes; runs replay them.
	base int
	// maxRuns is how many times the max-rate phase runs: enough that the
	// max-rate phases together last about as long as the open-loop one.
	maxRuns int
	// offered is the open-loop phase's fixed arrival rate in records per
	// wall second: a quarter to a third of the max-rate throughput this
	// 2-core host gives at the parent commit, so that a stretch of slow
	// host time shows as lateness rather than tipping the run into an
	// ever-growing backlog.
	offered float64
}

// openShare is the part of --seconds the open-loop phase lasts; the
// max-rate phase replays the same records at about twice the rate.
const openShare = 0.6

var workloads = []workload{
	{
		// Driver-bound: the per-batch snapshot build on the driver and on
		// every worker, the warm-up k-means and the CluStream global update;
		// assign is cheap at d=54.
		name: "lowdim-clustream", preset: datagen.KDD99Sim, algo: "clustream",
		tcp: true, workers: 2, delta: true,
		virtualRate: 100, batchSeconds: 2, initRecords: 500, base: 40000,
		offered: 4000, maxRuns: 2,
	},
	{
		// Worker- and wire-bound: ~3 KB per record through the columnar
		// codec and the blocked assign kernel; DenStream's global update is
		// tiny, so driver-side changes should not move it.
		name: "embed-denstream", preset: datagen.EmbedSim384, algo: "denstream",
		tcp: true, workers: 2,
		virtualRate: 100, batchSeconds: 2, initRecords: 500, base: 12000,
		offered: 5000, maxRuns: 5,
	},
	{
		// Reads beside writes: every publication goes through the serve
		// registry and the subscription hub to a replica while an HTTP
		// client queries and checkpoints land every few batches.
		name: "serve-fanout", preset: datagen.CovTypeSim, algo: "denstream",
		workers: 2, serveTier: true, checkpointEvery: 5,
		virtualRate: 100, batchSeconds: 10, initRecords: 500, base: 100000,
		offered: 50000, maxRuns: 8,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) batchRecords() int { return int(w.virtualRate * w.batchSeconds) }

// records is how many records a run replays: the warm-up sample plus what
// the open-loop phase offers in its share of the run.
func (w *workload) records(seconds int) int {
	return w.initRecords + int(w.offered*openShare*float64(seconds))
}

// input is one run's record stream: a generated base sample replayed in
// passes, each pass re-stamped to arrive after the previous one (the
// paper's construction of its large datasets), plus the batch layout the
// pipeline's batcher will cut from it. Replayed records share the base
// records' values; the pipeline never mutates a record.
type input struct {
	ds harness.Dataset
	n  int
	// span is one pass's timestamp span, including one inter-record gap.
	span vclock.Duration
	// batchOf[i] is the batch record i lands in; sizes[k] is batch k's
	// record count.
	batchOf []int32
	sizes   []int
}

// record returns the stream's i-th record.
func (in *input) record(i int) stream.Record {
	base := in.ds.Records
	r := base[i%len(base)]
	r.Seq = uint64(i)
	r.Timestamp = r.Timestamp.Add(vclock.Duration(i/len(base)) * in.span)
	return r
}

func generate(w *workload, seconds int, seed int64) (*input, error) {
	ds, err := harness.LoadDataset(w.preset, w.base, w.virtualRate, seed)
	if err != nil {
		return nil, err
	}
	recs := ds.Records
	in := &input{ds: ds, n: w.records(seconds)}
	in.span = recs[len(recs)-1].Timestamp - recs[0].Timestamp + vclock.Duration(1/w.virtualRate)
	in.batchOf = make([]int32, 0, in.n)
	b, err := stream.NewBatcher(newFeed(in, 0, 0), vclock.Duration(w.batchSeconds))
	if err != nil {
		return nil, err
	}
	for {
		batch, err := b.Next()
		if err != nil {
			break // io.EOF: the feed cannot fail otherwise
		}
		for range batch.Records {
			in.batchOf = append(in.batchOf, int32(batch.Index))
		}
		in.sizes = append(in.sizes, len(batch.Records))
	}
	if len(in.batchOf) != in.n {
		return nil, fmt.Errorf("batcher emitted %d of %d records", len(in.batchOf), in.n)
	}
	return in, nil
}
