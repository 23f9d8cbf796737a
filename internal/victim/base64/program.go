package base64

import (
	"repro/internal/isa"
)

// Layout places the decoder's code and LUT in the victim (enclave) address
// space. The two loops read the LUT from two distinct load instructions;
// the attacker builds an LLC eviction set congruent to the validity loop's
// load-instruction code line, both to stall the victim (performance
// degradation) and to tell the validity and decode loops apart (§5.2).
type Layout struct {
	// ValidityCode is the PC of the validity loop's LUT load instruction.
	ValidityCode uint64
	// DecodeCode is the PC of the decode loop's LUT load instruction.
	DecodeCode uint64
	// GlueCode is the PC of the inter-loop bookkeeping (chunk setup,
	// bounds checks) that runs between the validity and decode loops.
	GlueCode uint64
	// LUT is the base address of the 128-byte conversion table.
	LUT uint64
}

// DefaultLayout is used by the experiments. The two loop bodies sit on
// different cache lines, the LUT is line-aligned, and — importantly for the
// attack — the three monitored lines (validity code, LUT line 0, LUT line
// 1) map to distinct LLC sets, as a real attacker verifies when building
// eviction sets.
var DefaultLayout = Layout{
	ValidityCode: 0x0050_0100,
	DecodeCode:   0x0050_1400,
	GlueCode:     0x0050_2800,
	LUT:          0x0070_0880,
}

// LUTLineAddr returns the address of LUT cache line ln (0 or 1).
func (l Layout) LUTLineAddr(ln int) uint64 {
	return l.LUT + uint64(ln)*64
}

// EntryAddr returns the LUT address indexed by character c.
func (l Layout) EntryAddr(c byte) uint64 { return l.LUT + uint64(c) }

// BuildOptions tune the emitted victim.
type BuildOptions struct {
	// LVIMitigation inserts a serializing fence after every load, as the
	// MITIGATION-CVE2020-0551=LOAD compilation mode does. The paper's SGX
	// victim is built this way, which conveniently kills the speculative
	// smear on the cache channel.
	LVIMitigation bool
	// ValidityALU and DecodeALU set how much arithmetic surrounds each
	// load (loop overhead), shaping I_victim per iteration.
	ValidityALU int
	DecodeALU   int
	// GlueALU is the inter-loop bookkeeping length (buffer advance,
	// bounds checks between the validity and decode loops).
	GlueALU int
}

// DefaultBuildOptions mirror the paper's victim build.
var DefaultBuildOptions = BuildOptions{
	LVIMitigation: true,
	ValidityALU:   6,
	DecodeALU:     10,
	GlueALU:       16,
}

// BuildProgram emits the instruction stream of Decode(input): per chunk a
// validity loop (one tagged LUT load per character from the ValidityCode
// line) followed by a decode loop (one LUT load per character from the
// DecodeCode line). The stream is the resolved execution trace, with loop
// iterations revisiting the same PCs. Tags hold the input position.
func BuildProgram(input string, l Layout, opt BuildOptions) (*isa.Program, []Access, error) {
	_, trace, err := Decode(input)
	// An iteration is its load, the LVI fence, the ALU body and the loop
	// branch; glue sits between phases. Sizing the stream up front keeps
	// the build to one allocation.
	n := 0
	for i, a := range trace {
		if i > 0 && a.Phase != trace[i-1].Phase {
			n += opt.GlueALU
		}
		n += 2 + opt.alu(a.Phase)
		if opt.LVIMitigation {
			n++
		}
	}
	prog := &isa.Program{Name: "base64-decode", Insts: make([]isa.Inst, 0, n)}
	for i, a := range trace {
		if i > 0 && a.Phase != trace[i-1].Phase {
			for k := 0; k < opt.GlueALU; k++ {
				prog.Insts = append(prog.Insts, isa.Inst{PC: l.GlueCode + uint64(4*k), Kind: isa.ALU, Size: 4})
			}
		}
		codePC := l.DecodeCode
		if a.Phase == PhaseValidity {
			codePC = l.ValidityCode
		}
		alu := opt.alu(a.Phase)
		// The LUT load at the loop's load instruction.
		prog.Insts = append(prog.Insts, isa.Inst{
			PC: codePC, Kind: isa.Load, Mem: l.EntryAddr(a.Char), Tag: int32(a.Pos), Size: 4,
		})
		if opt.LVIMitigation {
			prog.Insts = append(prog.Insts, isa.Inst{PC: codePC + 4, Kind: isa.Fence, Size: 4})
		}
		// Loop body arithmetic on the same code line region.
		for k := 0; k < alu; k++ {
			prog.Insts = append(prog.Insts, isa.Inst{PC: codePC + 8 + uint64(4*k), Kind: isa.ALU, Size: 4})
		}
		// Backward loop branch.
		prog.Insts = append(prog.Insts, isa.Inst{
			PC: codePC + 8 + uint64(4*alu), Kind: isa.CondBranch, Target: codePC, Taken: true, Size: 4,
		})
	}
	return prog, trace, err
}

// alu returns the loop-body arithmetic length of a phase's loop.
func (opt BuildOptions) alu(p Phase) int {
	if p == PhaseValidity {
		return opt.ValidityALU
	}
	return opt.DecodeALU
}

// IterationCost returns roughly how many instructions one validity-loop
// iteration spans in the emitted program (for pacing I_victim).
func IterationCost(opt BuildOptions) int {
	n := 2 + opt.ValidityALU // load + branch + alu
	if opt.LVIMitigation {
		n++
	}
	return n
}
