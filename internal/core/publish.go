package core

import (
	"time"

	"diststream/internal/vclock"
)

// Published is one frozen, self-consistent view of the model handed to a
// snapshot-publication hook after a global update completes. Everything in
// it is decoupled from the live pipeline: MCs are deep clones, Index and
// Search are built over those clones, and Stats is a value copy — so a
// receiver may retain the whole struct and read it from any number of
// goroutines while the pipeline keeps ingesting. Receivers must treat the
// contents as immutable.
type Published struct {
	// Batch is the number of processed batches at publication time. The
	// warm-up publication (made right after model initialization, before
	// any batch flows through the parallel stages) reports 0.
	Batch int
	// Time is the model's virtual time at publication.
	Time vclock.Time
	// MCs are deep clones of the live micro-clusters in admission order.
	MCs []MicroCluster
	// Index is a FlatIndex over MCs: contiguous centers, norms and ids
	// for one-vs-many nearest-neighbour kernels.
	Index *FlatIndex
	// Search is the algorithm's own search snapshot over MCs — the same
	// structure broadcast to assign tasks, including the algorithm's
	// absorbable-boundary decision.
	Search Snapshot
	// Params is the publishing algorithm's serializable configuration —
	// enough for a downstream consumer (a subscription hub, a replica
	// client) to reconstruct the algorithm from the registry without
	// holding a reference to the pipeline's instance.
	Params Params
	// Stats is a copy of the run statistics accumulated so far.
	Stats RunStats
}

// PublishHook receives each post-global-update model publication. Under
// RunContext it runs in the batch's tail, concurrently with the next
// batch's parallel stages (never with a model mutation, and never
// concurrently with itself); ProcessBatch runs it synchronously.
// Implementations should be cheap (e.g. an atomic pointer swap); anything
// slow belongs on the receiver's side of that swap.
type PublishHook func(Published)

// publish hands the current model to the OnPublish hook when a
// publication is due.
func (p *Pipeline) publish(stats RunStats) {
	if p.publishDue() {
		p.publishModel(stats)
	}
}

// publishDue reports whether a publication would go out now: a hook is
// set and, under PublishMinInterval pacing, the interval since the last
// publication has elapsed. The batch loop asks before scheduling a tail,
// so a paced-out batch costs no clone and no goroutine. lastPublish is
// only written by publishModel, which never runs concurrently with
// itself and is always joined before the loop asks again, so the plain
// field needs no lock.
func (p *Pipeline) publishDue() bool {
	if p.cfg.OnPublish == nil {
		return false
	}
	return p.cfg.PublishMinInterval <= 0 || p.lastPublish.IsZero() ||
		time.Since(p.lastPublish) >= p.cfg.PublishMinInterval
}

// publishModel clones the current model and hands it to the OnPublish
// hook. stats is passed by value so the batch tail can hand the hook the
// statistics as of the published batch while the loop keeps
// accumulating; the model itself is only read (CloneList/Now/snapshot),
// which the batch loop's join discipline makes safe.
func (p *Pipeline) publishModel(stats RunStats) {
	p.lastPublish = time.Now()
	clones := p.model.CloneList()
	idx := BuildFlatIndex(clones)
	pub := Published{
		Batch:  stats.Batches,
		Time:   p.model.Now(),
		MCs:    clones,
		Index:  &idx,
		Search: p.cfg.Algorithm.NewSnapshot(clones),
		Params: p.cfg.Algorithm.Params(),
		Stats:  stats,
	}
	p.cfg.OnPublish(pub)
}
