package cpu

import (
	"fmt"

	"potgo/internal/core"
	"potgo/internal/isa"
	"potgo/internal/mem"
	"potgo/internal/obs"
	"potgo/internal/oid"
)

// Machine bundles the per-core memory system handed to a timing model: the
// cache/TLB hierarchy and (for OPT configurations) the ObjectID translation
// hardware. Translator may be nil for BASE runs, in which case encountering
// an nvld/nvst in the trace is an error. Tracer, when non-nil, receives
// sampled per-instruction pipeline timestamps (the only per-instruction
// cost when tracing is off is the nil check).
type Machine struct {
	Hier       *mem.Hierarchy
	Translator *core.Translator
	Tracer     *obs.PipelineTracer
}

// access is the decomposed cost of one memory instruction.
type access struct {
	// camLat is the POLB CAM access (Pipelined nv ops only). The CAM is
	// pipelined: it lengthens load-to-use latency but does not block the
	// in-order MEM stage.
	camLat uint64
	// walkLat is the POT-walk stall on a POLB miss; it blocks address
	// generation.
	walkLat uint64
	// tlbLat is the D-TLB miss penalty (zero on hits and on Parallel
	// POLB hits, which bypass the TLB).
	tlbLat uint64
	// cacheLat is the hierarchy load-to-use latency.
	cacheLat uint64
	// va is the post-translation virtual address used for memory
	// disambiguation in the LSQ. For Pipelined nv ops this is exactly
	// the paper's point: the LSQ only ever sees virtual addresses.
	va uint64
}

func (a access) total() uint64 { return a.camLat + a.walkLat + a.tlbLat + a.cacheLat }

// transLat is the hardware-translation portion of the cost.
func (a access) transLat() uint64 { return a.camLat + a.walkLat }

// resolve charges one memory instruction — its op and its address or
// ObjectID — against the hierarchy and translation hardware and returns its
// cost decomposition.
func (m *Machine) resolve(op isa.Op, addr uint64) (access, error) {
	switch op {
	case isa.Load, isa.Store:
		tlbLat := m.Hier.DataTLB(addr)
		pa, ok := m.Hier.Translate(addr)
		if !ok {
			return access{}, fmt.Errorf("cpu: %v: unmapped address %#x", op, addr)
		}
		return access{tlbLat: tlbLat, cacheLat: m.Hier.CacheAccess(pa), va: addr}, nil

	case isa.NVLoad, isa.NVStore:
		if m.Translator == nil {
			return access{}, fmt.Errorf("cpu: %v in trace but no translation hardware configured", op)
		}
		res, err := m.Translator.Translate(oid.OID(addr))
		if err != nil {
			return access{}, err
		}
		if res.BypassTLB {
			// Parallel design: physical address straight from the
			// POLB; the L1 look-up overlapped with the POLB CAM
			// access, so only the walk penalty (on misses) adds.
			// Following the paper's evaluation infrastructure
			// (Sniper charges its D-TLB on every memory operation
			// regardless of how the address was produced), the TLB
			// penalty is charged here too; the architectural
			// bypass-the-TLB argument of §4.1.2 concerns the hit
			// *path*, not the miss accounting.
			tlbLat := m.Hier.DataTLB(res.VA)
			return access{camLat: res.CAMLat, walkLat: res.WalkLat, tlbLat: tlbLat, cacheLat: m.Hier.CacheAccess(res.PA), va: res.VA}, nil
		}
		// Pipelined design: virtual address out of the POLB, then the
		// ordinary TLB + cache path.
		tlbLat := m.Hier.DataTLB(res.VA)
		pa, ok := m.Hier.Translate(res.VA)
		if !ok {
			return access{}, fmt.Errorf("cpu: %v: pool page unmapped at %#x", op, res.VA)
		}
		return access{camLat: res.CAMLat, walkLat: res.WalkLat, tlbLat: tlbLat, cacheLat: m.Hier.CacheAccess(pa), va: res.VA}, nil

	case isa.CLWB:
		lat, err := m.Hier.CLWB(addr)
		if err != nil {
			return access{}, err
		}
		return access{cacheLat: lat, va: addr}, nil

	default:
		return access{}, fmt.Errorf("cpu: resolve called on non-memory op %v", op)
	}
}
