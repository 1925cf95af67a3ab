package cluster

import "sync"

// Tracker answers "is seq of one origin's log durable on a quorum?". Acks
// are watermarks — a member holding seq holds everything below it — so the
// tracker keeps one per member: the primary's own local commit and every
// follower's last acked watermark.
type Tracker struct {
	mu     sync.Mutex
	quorum int
	held   map[uint32]uint64 // member -> highest seq it holds durably
}

// NewTracker returns a tracker requiring the given ack count per sequence.
func NewTracker(quorum int) *Tracker {
	return &Tracker{quorum: quorum, held: make(map[uint32]uint64)}
}

// Ack records that node holds origin's log durably through seq.
func (t *Tracker) Ack(seq uint64, node uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq > t.held[node] {
		t.held[node] = seq
	}
}

// Durable reports whether seq has reached quorum.
func (t *Tracker) Durable(seq uint64) bool { return seq <= t.Committed() }

// Committed returns the highest watermark at or below which every sequence
// is durable on a quorum: the quorum-th highest member watermark.
func (t *Tracker) Committed() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var committed uint64
	for _, w := range t.held {
		if w <= committed {
			continue
		}
		n := 0
		for _, h := range t.held {
			if h >= w {
				n++
			}
		}
		if n >= t.quorum {
			committed = w
		}
	}
	return committed
}
