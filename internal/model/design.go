// Package model implements the FlexCL analytical performance model
// (paper §3): the processing-element model (Eq. 1–4), the compute-unit
// model (Eq. 5–6), the kernel computation model (Eq. 7–8), the global
// memory model (Eq. 9) and their integration under the barrier (Eq. 10)
// and pipeline (Eq. 11–12) communication modes.
package model

import (
	"fmt"
	"math/bits"

	"repro/internal/device"
	"repro/internal/ir"
)

// CommMode is the computation/global-memory communication mode (§3.5).
type CommMode int

// Communication modes.
const (
	// ModeBarrier separates computation and global transfers; latencies
	// add (Eq. 10).
	ModeBarrier CommMode = iota
	// ModePipeline overlaps global transfers with computation (Eq. 11).
	ModePipeline
)

func (m CommMode) String() string {
	if m == ModePipeline {
		return "pipeline"
	}
	return "barrier"
}

// Design is one point of the optimization design space (§4.1): work-group
// size, work-item pipelining, PE and CU parallelism, and communication
// mode.
type Design struct {
	// WGSize is N_wi^wg, the work-items per work-group.
	WGSize int64
	// WIPipeline enables work-item pipelining inside a PE.
	WIPipeline bool
	// PE is the requested PE parallelism P per compute unit.
	PE int
	// CU is the number of compute units C.
	CU int
	// Mode is the communication mode. Kernels containing barriers are
	// forced to ModeBarrier regardless (§3.5).
	Mode CommMode
}

// String renders a compact design label (used in reports and Figure 4).
func (d Design) String() string {
	p := "-"
	if d.WIPipeline {
		p = "wi"
	}
	return fmt.Sprintf("wg%d/pipe=%s/pe%d/cu%d/%s", d.WGSize, p, d.PE, d.CU, d.Mode)
}

// ValidateDesign reports whether the platform can build d's parallelism:
// PE in [1, p.MaxPE], CU in [1, p.MaxCU], and PE replication only with
// work-item pipelining, since parallel PEs share the pipeline control.
func ValidateDesign(p *device.Platform, d Design) error {
	if d.PE < 1 || d.PE > p.MaxPE {
		return fmt.Errorf("pe %d out of range [1, %d]", d.PE, p.MaxPE)
	}
	if d.CU < 1 || d.CU > p.MaxCU {
		return fmt.Errorf("cu %d out of range [1, %d]", d.CU, p.MaxCU)
	}
	if d.PE > 1 && !d.WIPipeline {
		return fmt.Errorf("pe %d requires wi_pipeline (parallel PEs share the pipeline control)", d.PE)
	}
	return nil
}

// EffectiveMode returns the communication mode actually synthesizable for
// the kernel: kernels with work-group barriers stage their data through
// local memory and synchronize, which serializes global transfer phases
// against computation.
func EffectiveMode(f *ir.Func, d Design) CommMode {
	if f.HasBarrier {
		return ModeBarrier
	}
	return d.Mode
}

// DefaultSpace enumerates the design space swept in §4 at the
// work-group sizes 16, 32, … up to maxWG (just maxWG when it is below
// 16), each listed by WGSpace. A kernel's own sweep (dse.Space) lists
// its bench.Kernel.WGSizes instead.
func DefaultSpace(maxWG int64, maxPE, maxCU int) []Design {
	if maxWG < 16 {
		return WGSpace(nil, maxWG, maxPE, maxCU)
	}
	var out []Design
	for wg := int64(16); wg <= maxWG; wg *= 2 {
		out = WGSpace(out, wg, maxPE, maxCU)
	}
	return out
}

// WGSpace appends to dst the designs of one work-group size, in the
// order every exploration lists them: pipelining off then on, PE
// ascending over PEValues (PE > 1 only when pipelined: the flow does
// not replicate PEs without pipelining, since parallel PEs share the
// pipeline control), CU ascending over CUValues, barrier then pipeline
// mode. It appends WGSpaceLen(maxPE, maxCU) designs.
func WGSpace(dst []Design, wg int64, maxPE, maxCU int) []Design {
	for _, pipe := range [...]bool{false, true} {
		for pe := 1; pe <= maxPE && (pipe || pe == 1); pe *= 2 {
			for cu := 1; cu <= maxCU; cu *= 2 {
				dst = append(dst,
					Design{WGSize: wg, WIPipeline: pipe, PE: pe, CU: cu, Mode: ModeBarrier},
					Design{WGSize: wg, WIPipeline: pipe, PE: pe, CU: cu, Mode: ModePipeline})
			}
		}
	}
	return dst
}

// WGSpaceLen is the number of designs WGSpace lists at any one
// work-group size: (1 serial + one pipelined per PE value) × CU values
// × 2 modes, or none when no PE or CU value exists.
func WGSpaceLen(maxPE, maxCU int) int {
	pes, cus := powersOfTwo(maxPE), powersOfTwo(maxCU)
	return (min(pes, 1) + pes) * cus * 2
}

// powersOfTwo counts the powers of two in [1, n].
func powersOfTwo(n int) int {
	if n < 1 {
		return 0
	}
	return bits.Len(uint(n))
}
