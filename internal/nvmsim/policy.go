package nvmsim

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the adversarial crash policies.
type Kind int

const (
	// DropAll loses every volatile line: only what an SFENCE ordered is
	// durable. This is the minimal legal post-crash state and the
	// baseline adversary for missing-flush bugs.
	DropAll Kind = iota
	// KeepRandom lets each volatile line independently survive with
	// probability 1/2 — cache evictions and started write-backs that
	// happened to complete. It exposes ordering bugs: states where a
	// *later* store survived an *earlier* one it depended on.
	KeepRandom
	// Torn is KeepRandom at line granularity with word-granular tearing
	// inside surviving lines: each 8-byte word of a kept line survives
	// independently, matching the simulated machine's 8-byte store
	// atomicity. It exposes multi-word publish bugs.
	Torn
	// Explicit replays an exact survivor set (line → word mask), used
	// for deterministic replay of a reported failure and for
	// counterexample minimization.
	Explicit
)

func (k Kind) String() string {
	switch k {
	case DropAll:
		return "drop-all"
	case KeepRandom:
		return "keep-random"
	case Torn:
		return "torn"
	case Explicit:
		return "explicit"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses the String form of a policy kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "drop-all":
		return DropAll, nil
	case "keep-random":
		return KeepRandom, nil
	case "torn":
		return Torn, nil
	case "explicit":
		return Explicit, nil
	}
	return 0, fmt.Errorf("nvmsim: unknown policy kind %q", s)
}

// Policy decides the fate of each volatile line at a crash.
type Policy struct {
	Kind Kind
	// Seed drives KeepRandom and Torn. The same seed over the same
	// volatile set reproduces the same outcome.
	Seed uint64
	// Keep is the Explicit survivor set: line → word-survival mask
	// (bit i = 8-byte word i survives). Absent lines are dropped.
	Keep map[Line]byte
}

// DropAllPolicy returns the drop-everything policy.
func DropAllPolicy() Policy { return Policy{Kind: DropAll} }

// KeepRandomPolicy returns a seeded random-survivor policy.
func KeepRandomPolicy(seed uint64) Policy { return Policy{Kind: KeepRandom, Seed: seed} }

// TornPolicy returns a seeded torn-line policy.
func TornPolicy(seed uint64) Policy { return Policy{Kind: Torn, Seed: seed} }

// ExplicitPolicy returns a policy replaying an exact survivor set.
func ExplicitPolicy(keep map[Line]byte) Policy { return Policy{Kind: Explicit, Keep: keep} }

// mask returns the word-survival mask for one volatile line, consuming the
// policy's randomness in volatile-set order.
func (p Policy) mask(ln Line, rng *rng) byte {
	switch p.Kind {
	case DropAll:
		return 0
	case KeepRandom:
		if rng.next()&1 == 0 {
			return 0
		}
		return 0xFF
	case Torn:
		r := rng.next()
		if r&1 == 0 {
			return 0
		}
		return byte(r >> 32) // word mask; may itself be 0x00 or 0xFF
	case Explicit:
		return p.Keep[ln]
	default:
		return 0
	}
}

// LineOutcome records that a line survived a crash with the given word
// mask.
type LineOutcome struct {
	Line Line
	Mask byte
}

// Report describes what a Crash actually did.
type Report struct {
	Kind     Kind
	Seed     uint64
	Volatile int           // volatile lines at the crash
	Kept     []LineOutcome // survivors, in (pool, offset) order
	// Dropped lists the volatile lines that did not survive, in (pool,
	// offset) order. Counterexample minimization restores these one by one
	// to find the smallest loss that still triggers a failure.
	Dropped []Line
}

// Explicit converts the report's exact outcome into a replayable policy.
func (r Report) Explicit() Policy {
	keep := make(map[Line]byte, len(r.Kept))
	for _, k := range r.Kept {
		keep[k.Line] = k.Mask
	}
	return ExplicitPolicy(keep)
}

// KeptString renders the survivor set compactly ("pool:off/mask,...") for
// replay tokens and failure reports.
func (r Report) KeptString() string {
	if len(r.Kept) == 0 {
		return "none"
	}
	parts := make([]string, len(r.Kept))
	for i, k := range r.Kept {
		parts[i] = fmt.Sprintf("%d:%#x/%02x", k.Line.Pool, k.Line.Off, k.Mask)
	}
	return strings.Join(parts, ",")
}

// ParseKept parses KeptString output back into an Explicit survivor set.
func ParseKept(s string) (map[Line]byte, error) {
	keep := make(map[Line]byte)
	if s == "none" || s == "" {
		return keep, nil
	}
	for _, part := range strings.Split(s, ",") {
		poolS, rest, ok1 := strings.Cut(part, ":")
		offS, maskS, ok2 := strings.Cut(rest, "/")
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("nvmsim: bad kept-line %q", part)
		}
		pool, err1 := strconv.ParseUint(poolS, 10, 32)
		off, err2 := strconv.ParseUint(offS, 0, 32)
		mask, err3 := strconv.ParseUint(maskS, 16, 8)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("nvmsim: bad kept-line %q", part)
		}
		keep[Line{Pool: uint32(pool), Off: uint32(off)}] = byte(mask)
	}
	return keep, nil
}

// rng is a splitmix64 generator: tiny, fast, and stable across Go versions
// so seeds in recorded replay tokens stay valid forever.
type rng struct{ s uint64 }

func newRng(seed uint64) rng { return rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
