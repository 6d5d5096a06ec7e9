// Package hwpolicy models the paper's hardware implementation of the
// Q-learning power management policy.
//
// The paper implements the policy on an FPGA and builds a communication
// interface between the CPUs and the accelerator; decision-making in
// hardware is reported 3.92× faster than the software policy, and the
// average decision latency drops by up to 40× once the software stack's
// invocation overhead is included. This package reproduces that
// architecture at cycle level:
//
//   - a Q-table in BRAM holding Q16.16 fixed-point action values,
//   - a comparator tree computing argmax over the action row,
//   - a single MAC performing the Q-update Q += α·(r + γ·max − Q),
//   - a 16-bit LFSR for ε-greedy exploration,
//   - an AXI-Lite register file (internal/bus.Device) for the CPU side.
//
// The datapath arithmetic is exactly internal/fixed's saturating Q16.16,
// so the hardware model is differentially testable against a software
// reference.
package hwpolicy

import (
	"fmt"
	"math/bits"

	"rlpm/internal/fixed"
)

// Register map (word addresses on the AXI-Lite port).
const (
	RegCtrl    uint32 = 0x0 // write CtrlStep to run one decision, CtrlReset to clear
	RegStatus  uint32 = 0x1 // bit0: done; bit1: table-loaded
	RegState   uint32 = 0x2 // current encoded state index
	RegReward  uint32 = 0x3 // reward as raw Q16.16 bits
	RegAction  uint32 = 0x4 // result: chosen action (valid after a step)
	RegAlpha   uint32 = 0x5 // learning rate, raw Q16.16
	RegGamma   uint32 = 0x6 // discount, raw Q16.16
	RegEpsilon uint32 = 0x7 // exploration rate, raw Q16.16 (0 disables)
	RegQAddr   uint32 = 0x8 // Q-table access port: flat index state*actions+action
	RegQData   uint32 = 0x9 // Q-table access port: raw Q16.16 at RegQAddr
	RegLearn   uint32 = 0xA // bit0: enable Q-updates (1) or inference only (0)
)

// Control register commands.
const (
	CtrlStep  uint32 = 1
	CtrlReset uint32 = 2
)

// Status bits.
const (
	StatusDone uint32 = 1 << 0
)

// Params sizes the accelerator.
type Params struct {
	NumStates  int
	NumActions int
	// Banks is the number of BRAM banks the action row is striped over;
	// row fetch takes ceil(NumActions/Banks) cycles.
	Banks int
	// LFSRSeed seeds the exploration LFSR (must be non-zero).
	LFSRSeed uint16
}

// DefaultParams returns the evaluation-sized accelerator: the default
// policy state space (864 states × 9 actions) striped over 4 BRAM banks.
func DefaultParams() Params {
	return Params{NumStates: 864, NumActions: 9, Banks: 4, LFSRSeed: 0xACE1}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.NumStates < 1 || p.NumActions < 1 {
		return fmt.Errorf("hwpolicy: table must be at least 1x1, got %dx%d", p.NumStates, p.NumActions)
	}
	if p.NumActions > 64 {
		return fmt.Errorf("hwpolicy: comparator tree supports at most 64 actions, got %d", p.NumActions)
	}
	if p.Banks < 1 {
		return fmt.Errorf("hwpolicy: need at least one BRAM bank")
	}
	if p.LFSRSeed == 0 {
		return fmt.Errorf("hwpolicy: LFSR seed must be non-zero")
	}
	return nil
}

// Accel is the cycle-level accelerator model. It implements bus.Device.
type Accel struct {
	p Params
	q []fixed.Q16 // flat [state*NumActions + action]

	// parity is the per-word even-parity bit maintained alongside the Q
	// BRAM when parityOn; scrubs counts words the datapath detected as
	// corrupted and zeroed (an SEU scrub resets the cell to its reset
	// value — the learner relearns it).
	parityOn bool
	parity   []uint8
	scrubs   uint64

	alpha, gamma, epsilon fixed.Q16
	learn                 bool

	lfsr uint16
	// stuckMask/stuckVal model stuck-at faults on the exploration LFSR:
	// bits in stuckMask are forced to stuckVal after every shift.
	stuckMask, stuckVal uint16

	stateReg  uint32
	rewardReg fixed.Q16
	actionReg uint32
	qAddr     uint32
	status    uint32

	prevState  uint32
	prevAction uint32
	hasPrev    bool

	steps       uint64
	totalCycles uint64
}

// New builds an accelerator with a zeroed Q-table and default learning
// parameters of α=0.2, γ=0.85, ε=0 (inference-greedy until configured).
func New(p Params) (*Accel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Accel{
		p:     p,
		q:     make([]fixed.Q16, p.NumStates*p.NumActions),
		alpha: fixed.FromFloat(0.2),
		gamma: fixed.FromFloat(0.85),
		learn: true,
		lfsr:  p.LFSRSeed,
	}, nil
}

// Params returns the sizing parameters.
func (a *Accel) Params() Params { return a.p }

// Steps returns how many decisions the accelerator has run.
func (a *Accel) Steps() uint64 { return a.steps }

// TotalCycles returns the cumulative device-clock compute cycles.
func (a *Accel) TotalCycles() uint64 { return a.totalCycles }

// StepCycles returns the device-clock cycles one decision takes:
// row fetch (banked) + comparator tree + MAC update + write-back +
// action select.
func (a *Accel) StepCycles() uint64 {
	fetch := (a.p.NumActions + a.p.Banks - 1) / a.p.Banks
	tree := treeDepth(a.p.NumActions)
	const mac = 3       // multiply, accumulate, saturate
	const writeback = 1 // BRAM write port
	const sel = 1       // ε-greedy mux
	cycles := uint64(fetch + tree + mac + writeback + sel)
	if a.parityOn {
		cycles++ // parity check/scrub stage on the fetch path
	}
	return cycles
}

func treeDepth(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// ReadReg implements bus.Device.
func (a *Accel) ReadReg(addr uint32) (uint32, error) {
	switch addr {
	case RegCtrl:
		return 0, nil
	case RegStatus:
		return a.status, nil
	case RegState:
		return a.stateReg, nil
	case RegReward:
		return uint32(a.rewardReg.Raw()), nil
	case RegAction:
		return a.actionReg, nil
	case RegAlpha:
		return uint32(a.alpha.Raw()), nil
	case RegGamma:
		return uint32(a.gamma.Raw()), nil
	case RegEpsilon:
		return uint32(a.epsilon.Raw()), nil
	case RegQAddr:
		return a.qAddr, nil
	case RegQData:
		if int(a.qAddr) >= len(a.q) {
			return 0, fmt.Errorf("hwpolicy: Q address %d out of range: %w", a.qAddr, ErrOutOfRange)
		}
		a.checkWord(int(a.qAddr))
		return uint32(a.q[a.qAddr].Raw()), nil
	case RegLearn:
		if a.learn {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("hwpolicy: read of unmapped register %#x: %w", addr, ErrBadRegister)
	}
}

// WriteReg implements bus.Device. Writing CtrlStep runs one decision and
// returns its compute-cycle cost.
func (a *Accel) WriteReg(addr, val uint32) (uint64, error) {
	switch addr {
	case RegCtrl:
		switch val {
		case CtrlStep:
			return a.step(), nil
		case CtrlReset:
			a.reset()
			return 0, nil
		default:
			return 0, fmt.Errorf("hwpolicy: unknown control command %#x: %w", val, ErrBadCommand)
		}
	case RegState:
		if int(val) >= a.p.NumStates {
			return 0, fmt.Errorf("hwpolicy: state %d out of range [0,%d): %w", val, a.p.NumStates, ErrOutOfRange)
		}
		a.stateReg = val
		return 0, nil
	case RegReward:
		a.rewardReg = fixed.FromRaw(int32(val))
		return 0, nil
	case RegAlpha:
		a.alpha = fixed.FromRaw(int32(val))
		return 0, nil
	case RegGamma:
		a.gamma = fixed.FromRaw(int32(val))
		return 0, nil
	case RegEpsilon:
		a.epsilon = fixed.FromRaw(int32(val))
		return 0, nil
	case RegQAddr:
		if int(val) >= len(a.q) {
			return 0, fmt.Errorf("hwpolicy: Q address %d out of range: %w", val, ErrOutOfRange)
		}
		a.qAddr = val
		return 0, nil
	case RegQData:
		if int(a.qAddr) >= len(a.q) {
			return 0, fmt.Errorf("hwpolicy: Q address %d out of range: %w", a.qAddr, ErrOutOfRange)
		}
		a.setQ(int(a.qAddr), fixed.FromRaw(int32(val)))
		return 0, nil
	case RegLearn:
		a.learn = val&1 == 1
		return 0, nil
	case RegStatus, RegAction:
		return 0, fmt.Errorf("hwpolicy: register %#x is read-only: %w", addr, ErrBadRegister)
	default:
		return 0, fmt.Errorf("hwpolicy: write to unmapped register %#x: %w", addr, ErrBadRegister)
	}
}

// step is the hardware decision: argmax over the new state's row, MAC
// update of the previous (state, action), ε-greedy select via LFSR.
func (a *Accel) step() uint64 {
	if a.parityOn {
		// The row fetch passes every word through the parity checker; a
		// mismatch scrubs the word back to reset value before the argmax
		// sees it.
		base := int(a.stateReg) * a.p.NumActions
		for i := 0; i < a.p.NumActions; i++ {
			a.checkWord(base + i)
		}
	}
	row := a.row(a.stateReg)
	bestIdx, bestVal := fixed.ArgMax(row)

	if a.learn && a.hasPrev {
		idx := int(a.prevState)*a.p.NumActions + int(a.prevAction)
		a.checkWord(idx)
		old := a.q[idx]
		target := fixed.Add(a.rewardReg, fixed.Mul(a.gamma, bestVal))
		a.setQ(idx, fixed.Add(old, fixed.Mul(a.alpha, fixed.Sub(target, old))))
	}

	action := uint32(bestIdx)
	if a.learn && a.epsilon > 0 {
		// Two LFSR draws: one against ε (scaled to 16 fractional bits),
		// one to pick the random action — exactly what the RTL does.
		draw := a.nextLFSR()
		if fixed.Q16(draw) < a.epsilon {
			action = uint32(a.nextLFSR()) % uint32(a.p.NumActions)
		} else {
			_ = a.nextLFSR() // RTL consumes both draws every step
		}
	}

	a.actionReg = action
	a.prevState, a.prevAction, a.hasPrev = a.stateReg, action, true
	a.status |= StatusDone
	a.steps++
	cycles := a.StepCycles()
	a.totalCycles += cycles
	return cycles
}

// nextLFSR advances the 16-bit Fibonacci LFSR (taps 16,14,13,11 — maximal
// length) and returns its state. Stuck-at faults force the masked bits
// after every shift, exactly as a shorted flip-flop would.
func (a *Accel) nextLFSR() uint16 {
	l := a.lfsr
	bit := ((l >> 0) ^ (l >> 2) ^ (l >> 3) ^ (l >> 5)) & 1
	l = (l >> 1) | (bit << 15)
	if a.stuckMask != 0 {
		l = (l &^ a.stuckMask) | (a.stuckVal & a.stuckMask)
	}
	a.lfsr = l
	return l
}

func (a *Accel) row(state uint32) []fixed.Q16 {
	base := int(state) * a.p.NumActions
	return a.q[base : base+a.p.NumActions]
}

func (a *Accel) reset() {
	for i := range a.q {
		a.q[i] = 0
	}
	for i := range a.parity {
		a.parity[i] = 0
	}
	a.scrubs = 0
	a.lfsr = a.p.LFSRSeed
	a.stateReg, a.rewardReg, a.actionReg, a.qAddr = 0, 0, 0, 0
	a.prevState, a.prevAction, a.hasPrev = 0, 0, false
	a.status = 0
	a.steps, a.totalCycles = 0, 0
}

// LoadTable writes a float64 Q-table (e.g. trained in software by
// internal/core) into the accelerator, quantizing to Q16.16. Shape must
// match the params.
func (a *Accel) LoadTable(table [][]float64) error {
	if len(table) != a.p.NumStates {
		return fmt.Errorf("hwpolicy: table has %d states, accelerator sized for %d", len(table), a.p.NumStates)
	}
	for s, rowVals := range table {
		if len(rowVals) != a.p.NumActions {
			return fmt.Errorf("hwpolicy: table row %d has %d actions, accelerator sized for %d", s, len(rowVals), a.p.NumActions)
		}
		for x, v := range rowVals {
			a.setQ(s*a.p.NumActions+x, fixed.FromFloat(v))
		}
	}
	a.status |= 1 << 1
	return nil
}

// setQ writes one Q word through the BRAM write port, keeping the parity
// plane in sync when parity protection is enabled.
func (a *Accel) setQ(idx int, v fixed.Q16) {
	a.q[idx] = v
	if a.parityOn {
		a.parity[idx] = wordParity(v)
	}
}

// checkWord runs the parity checker over one Q word. On a mismatch the
// word is scrubbed back to its reset value (zero) and the scrub counter
// increments; without parity protection this is a no-op and corrupted
// words flow into the datapath silently.
func (a *Accel) checkWord(idx int) {
	if !a.parityOn {
		return
	}
	if wordParity(a.q[idx]) != a.parity[idx] {
		a.q[idx] = 0
		a.parity[idx] = 0
		a.scrubs++
	}
}

func wordParity(v fixed.Q16) uint8 {
	return uint8(bits.OnesCount32(uint32(v.Raw())) & 1)
}

// EnableParity turns the per-word parity plane on or off. Enabling it
// recomputes parity over the current table contents (the BRAM initializer
// writes both planes together in the RTL).
func (a *Accel) EnableParity(on bool) {
	a.parityOn = on
	if !on {
		a.parity = nil
		return
	}
	a.parity = make([]uint8, len(a.q))
	for i, v := range a.q {
		a.parity[i] = wordParity(v)
	}
}

// Scrubs returns how many corrupted Q words the parity checker scrubbed
// since the last reset.
func (a *Accel) Scrubs() uint64 { return a.scrubs }

// QWords returns the number of words in the Q BRAM (the fault injector's
// address space for single-event upsets). Part of fault.Corruptor.
func (a *Accel) QWords() int { return len(a.q) }

// CorruptQBit flips one bit of one Q word *without* updating the parity
// plane — a single-event upset in the BRAM array. Out-of-range targets
// are ignored (an SEU outside the array hits nothing). Part of
// fault.Corruptor.
func (a *Accel) CorruptQBit(word int, bit uint) {
	if word < 0 || word >= len(a.q) || bit > 31 {
		return
	}
	a.q[word] = fixed.FromRaw(a.q[word].Raw() ^ int32(uint32(1)<<bit))
}

// SetLFSRStuck forces the masked bits of the exploration LFSR to the
// corresponding bits of val after every shift — a stuck-at fault on the
// shift register. A zero mask clears the fault.
func (a *Accel) SetLFSRStuck(mask, val uint16) {
	a.stuckMask, a.stuckVal = mask, val
}

// Table returns the Q-table as floats (for inspection/differential tests).
func (a *Accel) Table() [][]float64 {
	out := make([][]float64, a.p.NumStates)
	for s := range out {
		out[s] = make([]float64, a.p.NumActions)
		for x := range out[s] {
			out[s][x] = a.q[s*a.p.NumActions+x].Float()
		}
	}
	return out
}
