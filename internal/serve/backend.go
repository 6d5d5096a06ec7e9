package serve

import "sync/atomic"

// SWBackend holds the live policy a decide frame reads: the model's flat
// arena (core.FlatTables), each lookup scanning its row with
// FlatTables.Argmax. A frame pins the model once with acquire, reads one
// greedy action per exploit lookup from it, and hands it back with
// release; a frame of a frozen session, or one that explores every
// cluster, never pins it.
//
// The served model is behind an atomic pointer so an online learner can
// publish a new table set without the decide path ever taking a lock.
// Readers follow the N-reader grace rule: acquire loads the live model,
// raises its reader count, then checks the model is still live (if not,
// it lowers the count and retries), and release lowers the count. The
// learner rewrites a model it retired only when the model's count is zero.
// A reader that loaded a model just before it was retired therefore either
// raised the count before the learner looked at it — the learner writes a
// fresh arena instead — or finds on its recheck that the model is no
// longer live and moves on to the one that is.
type SWBackend struct {
	live atomic.Pointer[Model] // current policy: swapped by the learner, pinned by acquire
	// loaded and park are test seams, nil in production: loaded runs
	// between acquire's load of the live model and its count increment,
	// park once acquire holds its model.
	loaded func(*Model)
	park   func(*Model)
}

// NewSWBackend builds the software backend over model.
func NewSWBackend(m *Model) *SWBackend {
	b := &SWBackend{}
	b.live.Store(m)
	return b
}

func (b *SWBackend) acquire() *Model {
	for {
		m := b.live.Load()
		if b.loaded != nil {
			b.loaded(m)
		}
		m.readers.Add(1)
		if b.live.Load() == m {
			if b.park != nil {
				b.park(m)
			}
			return m
		}
		m.readers.Add(-1)
	}
}

func (b *SWBackend) release(m *Model) { m.readers.Add(-1) }
