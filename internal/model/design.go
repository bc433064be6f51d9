// Package model implements the FlexCL analytical performance model
// (paper §3): the processing-element model (Eq. 1–4), the compute-unit
// model (Eq. 5–6), the kernel computation model (Eq. 7–8), the global
// memory model (Eq. 9) and their integration under the barrier (Eq. 10)
// and pipeline (Eq. 11–12) communication modes.
package model

import (
	"fmt"

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

// DefaultSpace enumerates the design space swept in §4: work-group sizes
// × pipelining × PE parallelism × CU count × communication mode. Kernel
// specs may restrict it further (e.g. reqd_work_group_size).
func DefaultSpace(maxWG int64, maxPE, maxCU int) []Design {
	var wgs []int64
	for wg := int64(16); wg <= maxWG; wg *= 2 {
		wgs = append(wgs, wg)
	}
	if len(wgs) == 0 {
		wgs = []int64{maxWG}
	}
	pes := PEValues(maxPE)
	cus := CUValues(maxCU)
	var out []Design
	for _, wg := range wgs {
		for _, pipe := range []bool{false, true} {
			for _, pe := range pes {
				if !pipe && pe > 1 {
					// PE replication without pipelining is not generated
					// by the flow: parallel PEs share the pipeline
					// control.
					continue
				}
				for _, cu := range cus {
					for _, mode := range []CommMode{ModeBarrier, ModePipeline} {
						out = append(out, Design{
							WGSize: wg, WIPipeline: pipe, PE: pe, CU: cu, Mode: mode,
						})
					}
				}
			}
		}
	}
	return out
}
