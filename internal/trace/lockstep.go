package trace

import "potgo/internal/isa"

// Sink receives emitted instructions one at a time. Only Lockstep's
// producer side uses it.
type Sink interface {
	Emit(isa.Instr)
}

// Lockstep runs a producer on its own goroutine and hands its instructions
// one at a time, through Next, to a consumer on another; the two strictly
// alternate, one chunk per turn. Simulations do not use it: it is kept only
// because the benchmark module (bench/trace_sim.go) still times this
// hand-off.
type Lockstep struct {
	ch   chan []isa.Instr
	ack  chan struct{}
	done chan struct{}

	cur    []isa.Instr
	pos    int
	opened bool
}

// streamClosed is the panic that unwinds a producer whose consumer called
// Close.
type streamClosed struct{}

var errStreamClosed = streamClosed{}

// GenerateLockstep runs producer in its own goroutine under the alternation
// protocol and returns the consumer's side.
func GenerateLockstep(producer func(Sink)) *Lockstep {
	l := &Lockstep{
		ch:   make(chan []isa.Instr),
		ack:  make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.ch)
		sink := &lockSink{
			l:     l,
			buf:   make([]isa.Instr, 0, ChunkSize),
			spare: make([]isa.Instr, 0, ChunkSize),
		}
		defer func() {
			if r := recover(); r != nil && r != errStreamClosed {
				panic(r)
			}
		}()
		producer(sink)
		sink.flush()
	}()
	return l
}

// lockSink double-buffers its chunks: the alternation protocol means the
// consumer has acked (and will never touch again) the previously handed-over
// chunk by the time the producer needs a fresh buffer, so two buffers cycle
// for the whole trace and steady-state hand-off allocates nothing.
type lockSink struct {
	l     *Lockstep
	buf   []isa.Instr
	spare []isa.Instr
}

// Emit implements Sink.
func (s *lockSink) Emit(in isa.Instr) {
	s.buf = append(s.buf, in)
	if len(s.buf) == ChunkSize {
		s.flush()
	}
}

// flush hands the chunk to the consumer and blocks until it has been fully
// executed (the ack), so the producer never mutates shared state while the
// consumer runs. After the ack the consumer is done with the sent chunk, and
// the spare buffer has been unreferenced since the ack before that, so the
// buffers alternate without allocation.
func (s *lockSink) flush() {
	if len(s.buf) == 0 {
		return
	}
	select {
	case s.l.ch <- s.buf:
	case <-s.l.done:
		panic(errStreamClosed)
	}
	select {
	case <-s.l.ack:
	case <-s.l.done:
		panic(errStreamClosed)
	}
	s.buf, s.spare = s.spare[:0], s.buf
}

// Next returns the next instruction; ok is false at the end of the trace.
// Exhausting a chunk acks the producer before blocking for the next one.
func (l *Lockstep) Next() (isa.Instr, bool) {
	for l.pos >= len(l.cur) {
		if l.opened {
			l.opened = false
			select {
			case l.ack <- struct{}{}:
			case <-l.done:
				return isa.Instr{}, false
			}
		}
		chunk, ok := <-l.ch
		if !ok {
			return isa.Instr{}, false
		}
		l.cur, l.pos, l.opened = chunk, 0, true
	}
	in := l.cur[l.pos]
	l.pos++
	return in, true
}

// Close releases a blocked producer after an early consumer exit (e.g. a
// simulation error). Safe to call multiple times and after exhaustion.
func (l *Lockstep) Close() {
	select {
	case <-l.done:
		return
	default:
		close(l.done)
	}
	l.cur, l.pos, l.opened = nil, 0, false
	for range l.ch {
	}
}
