package harness

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"potgo/internal/core"
	"potgo/internal/polb"
	"potgo/internal/workloads"
)

// Label renders a short human-readable configuration name: the benchmark,
// pattern, configuration and core, in the paper's terms. String extends it
// into a name that round-trips through ParseSpec.
func (s RunSpec) Label() string {
	cfg := "BASE"
	if s.FixedMap {
		cfg = "FIXED"
	}
	if s.Opt {
		cfg = "OPT/" + s.Design.String()
		if s.Ideal {
			cfg += "/ideal"
		}
	}
	if !s.Tx {
		cfg += "_NTX"
	}
	if s.FT {
		cfg += "_FT"
	}
	return fmt.Sprintf("%s/%s/%s/%s", s.Bench, s.Pattern, cfg, s.Core)
}

// String names the spec: its Label followed by ":key=value" for each
// non-zero field Label leaves out, in the order of keyFields — for example
// "LL/RANDOM/OPT/Pipelined/in-order:ops=500:seed=1". ParseSpec reads it
// back, and two specs that differ in a field Run reads get different names.
func (s RunSpec) String() string {
	var b strings.Builder
	b.WriteString(s.Label())
	for _, f := range s.keyFields() {
		if v := f.value(); v != "" {
			b.WriteString(":" + f.name + "=" + v)
		}
	}
	return b.String()
}

// ParseSpec parses a name String renders, and nothing else: the words are
// case-sensitive, the keys come in String's order, once each, with non-zero
// values in canonical form, and the spec must pass the checks Run makes.
// For every spec it accepts, ParseSpec(s.String()) == s.
func ParseSpec(str string) (RunSpec, error) {
	bad := func(err error) (RunSpec, error) {
		return RunSpec{}, fmt.Errorf("harness: spec %q: %w", str, err)
	}
	parts := strings.Split(str, ":")
	s, ok := labels()[parts[0]]
	if !ok {
		return bad(fmt.Errorf("unknown label %q (want Bench/Pattern/Config/Core, e.g. LL/RANDOM/OPT/Pipelined/in-order)", parts[0]))
	}
	fields := s.keyFields()
	seen := map[string]bool{}
	for _, kv := range parts[1:] {
		name, val, _ := strings.Cut(kv, "=")
		i := slices.IndexFunc(fields, func(f specField) bool { return f.name == name })
		switch {
		case i < 0:
			return bad(fmt.Errorf("unknown key %q", name))
		case seen[name]:
			return bad(fmt.Errorf("duplicate key %q", name))
		}
		seen[name] = true
		if err := fields[i].set(val); err != nil {
			return bad(fmt.Errorf("%s: %w", name, err))
		}
	}
	if err := s.check(); err != nil {
		return bad(err)
	}
	if c := s.String(); c != str {
		return bad(fmt.Errorf("not in canonical form %q", c))
	}
	return s, nil
}

// labels maps every label of a spec Run accepts to the fields it names.
var labels = sync.OnceValue(func() map[string]RunSpec {
	m := map[string]RunSpec{}
	for _, bench := range append([]string{TPCCBench}, MicroBenches...) {
		for _, pat := range patterns {
			for _, core := range []CoreKind{InOrder, OutOfOrder} {
				for bits := 0; bits < 64; bits++ {
					s := RunSpec{Bench: bench, Pattern: pat, Core: core,
						Opt: bits&1 != 0, FixedMap: bits&2 != 0, Ideal: bits&4 != 0,
						Design: polb.Design(bits >> 3 & 1), Tx: bits&16 == 0, FT: bits&32 != 0}
					if s.check() == nil {
						m[s.Label()] = s
					}
				}
			}
		}
	}
	return m
})

// check reports a spec Run refuses: an unknown benchmark, a combination of
// fields that contradict each other, or a count out of its range.
func (s RunSpec) check() error {
	_, micro := workloads.ByAbbr(s.Bench)
	switch {
	case !micro && s.Bench != TPCCBench:
		return fmt.Errorf("unknown benchmark %q", s.Bench)
	case s.Opt && s.FixedMap:
		return errors.New("OPT and FIXED are mutually exclusive")
	case s.Ideal && !s.Opt:
		return errors.New("ideal translation needs OPT")
	case s.Design != polb.Pipelined && !s.Opt:
		return errors.New("a POLB design needs OPT")
	case s.TPCC && s.Bench != TPCCBench:
		return errors.New("tpcc=test needs the TPCC benchmark")
	case s.Ops < 0 || s.POLBSets < 0 || s.POTEntries < 0:
		return errors.New("ops, sets and pot must not be negative")
	case s.POTWalk < core.ZeroWalk:
		return fmt.Errorf("walk must be positive or %d (a free walk)", core.ZeroWalk)
	}
	return nil
}

// specField is a field String renders as ":name=value": ptr is an *int,
// an *int64 or a *bool whose only value is word.
type specField struct {
	name string
	ptr  any
	word string
}

// keyFields returns the fields Label leaves out, in String's order.
func (s *RunSpec) keyFields() []specField {
	return []specField{
		{"polb", &s.POLBSize, ""},
		{"sets", &s.POLBSets, ""},
		{"walk", &s.POTWalk, ""},
		{"pot", &s.POTEntries, ""},
		{"probe", &s.ProbeWalk, "true"},
		{"prefetch", &s.Prefetch, "true"},
		{"ops", &s.Ops, ""},
		{"seed", &s.Seed, ""},
		{"tpcc", &s.TPCC, "test"},
	}
}

// value renders the field, or "" when it is zero.
func (f specField) value() string {
	switch p := f.ptr.(type) {
	case *int:
		if *p != 0 {
			return strconv.Itoa(*p)
		}
	case *int64:
		if *p != 0 {
			return strconv.FormatInt(*p, 10)
		}
	case *bool:
		if *p {
			return f.word
		}
	}
	return ""
}

// set parses a value that value renders.
func (f specField) set(v string) (err error) {
	switch p := f.ptr.(type) {
	case *int:
		*p, err = strconv.Atoi(v)
	case *int64:
		*p, err = strconv.ParseInt(v, 10, 64)
	case *bool:
		if *p = v == f.word; !*p {
			err = fmt.Errorf("the only value is %q", f.word)
		}
	}
	return err
}
