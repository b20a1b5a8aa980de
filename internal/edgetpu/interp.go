package edgetpu

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// This file implements the device-side instruction interpreter: the
// byte-level realization of the Edge TPU's CISC execution model
// ("TPUs do not contain on-chip instruction caches but simply use a
// CISC-style instruction-set architecture and rely on the host
// program to issue instructions through the system interconnect",
// paper section 2.1). The host assembles an instruction packet —
// opcode, parameter words, operand models in the reverse-engineered
// on-wire format of section 3.3 — and the interpreter decodes,
// executes with bit-exact int8/int32 arithmetic, and encodes the
// result back as a model.
//
// The scheduler in internal/core does not route every tile through
// this byte path (the Go function calls in ops.go compute the same
// values without serialization cost); the interpreter exists to pin
// down the wire format. Only tests drive it: every opcode end to end
// (TestInterpreterEveryOpcode), values per opcode, and
// FuzzInstructionPacket.

// instrMagic opens every instruction packet.
var instrMagic = [8]byte{'G', 'P', 'T', 'P', 'U', 'I', 'N', 'S'}

// InstrParams carries the parameter words of an instruction packet.
type InstrParams struct {
	// StrideR/StrideC: conv2D striding (Figure 5); 0 means 1.
	StrideR, StrideC int
	// R0, C0, Rows, Cols: crop window or ext target.
	R0, C0, Rows, Cols int
	// RequantDivisor rescales wide results into int8 on the output
	// stage; 0 means 1.
	RequantDivisor int
}

// instruction packet layout (little endian):
//
//	[0:8)   magic
//	[8:9)   opcode
//	[9:10)  operand count
//	[10:38) 7 x int32 parameter words
//	then per operand: uint32 length + encoded model bytes
const instrHeaderSize = 8 + 1 + 1 + 7*4

// errBadInstruction reports a malformed packet.
var errBadInstruction = errors.New("edgetpu: bad instruction packet")

// EncodeInstruction assembles an instruction packet.
func EncodeInstruction(op isa.OpCode, p InstrParams, operands ...*model.Model) ([]byte, error) {
	if !op.Valid() {
		return nil, fmt.Errorf("%w: invalid opcode %d", errBadInstruction, int(op))
	}
	if len(operands) == 0 || len(operands) > 255 {
		return nil, fmt.Errorf("%w: %d operands", errBadInstruction, len(operands))
	}
	buf := make([]byte, instrHeaderSize)
	copy(buf[:8], instrMagic[:])
	buf[8] = byte(op)
	buf[9] = byte(len(operands))
	words := []int{p.StrideR, p.StrideC, p.R0, p.C0, p.Rows, p.Cols, p.RequantDivisor}
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[10+4*i:], uint32(int32(w)))
	}
	for _, m := range operands {
		enc := m.Encode()
		var lenb [4]byte
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(enc)))
		buf = append(buf, lenb[:]...)
		buf = append(buf, enc...)
	}
	return buf, nil
}

// decodeInstruction parses a packet back into its parts.
func decodeInstruction(buf []byte) (isa.OpCode, InstrParams, []*model.Model, error) {
	var p InstrParams
	if len(buf) < instrHeaderSize {
		return 0, p, nil, fmt.Errorf("%w: truncated header", errBadInstruction)
	}
	for i, b := range instrMagic {
		if buf[i] != b {
			return 0, p, nil, fmt.Errorf("%w: magic mismatch", errBadInstruction)
		}
	}
	op := isa.OpCode(buf[8])
	if !op.Valid() {
		return 0, p, nil, fmt.Errorf("%w: opcode %d", errBadInstruction, buf[8])
	}
	count := int(buf[9])
	words := make([]int, 7)
	for i := range words {
		words[i] = int(int32(binary.LittleEndian.Uint32(buf[10+4*i:])))
	}
	p = InstrParams{
		StrideR: words[0], StrideC: words[1],
		R0: words[2], C0: words[3], Rows: words[4], Cols: words[5],
		RequantDivisor: words[6],
	}
	operands := make([]*model.Model, 0, count)
	off := instrHeaderSize
	for i := 0; i < count; i++ {
		if off+4 > len(buf) {
			return 0, p, nil, fmt.Errorf("%w: truncated operand %d length", errBadInstruction, i)
		}
		l := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if off+l > len(buf) {
			return 0, p, nil, fmt.Errorf("%w: truncated operand %d body", errBadInstruction, i)
		}
		m, err := model.Decode(buf[off : off+l])
		if err != nil {
			return 0, p, nil, fmt.Errorf("%w: operand %d: %v", errBadInstruction, i, err)
		}
		operands = append(operands, m)
		off += l
	}
	if off != len(buf) {
		return 0, p, nil, fmt.Errorf("%w: %d trailing bytes", errBadInstruction, len(buf)-off)
	}
	return op, p, operands, nil
}

// Interpreter executes encoded instruction packets with the device's
// functional semantics.
type Interpreter struct{}

// Execute decodes the packet, runs the instruction, and returns the
// result encoded as a model. The result scale reflects the operand
// scales and the requantization divisor, so the host can dequantize
// without extra metadata.
func (Interpreter) Execute(packet []byte) ([]byte, error) {
	op, p, operands, err := decodeInstruction(packet)
	if err != nil {
		return nil, err
	}
	div := int32(p.RequantDivisor)
	if div <= 0 {
		div = 1
	}
	divider := quant.NewDivider(div)
	need := func(n int) error {
		if len(operands) != n {
			return fmt.Errorf("%w: %v needs %d operands, got %d", errBadInstruction, op, n, len(operands))
		}
		return nil
	}
	requant := func(wide *tensor.MatrixI32, combined float32) *model.Model {
		out := tensor.NewI8(wide.Rows, wide.Cols)
		for r := 0; r < wide.Rows; r++ {
			src, dst := wide.Row(r), out.Row(r)
			for i, v := range src {
				dst[i] = quant.SaturateI8(divider.RoundDiv(v))
			}
		}
		// raw = q8 * div / combined  =>  stored scale = combined/div.
		return model.FromI8(out, combined/float32(div))
	}

	switch {
	case op == isa.Conv2D:
		if err := need(2); err != nil {
			return nil, err
		}
		in, k := operands[0], operands[1]
		outs := Conv2D(in.Data, []*tensor.MatrixI8{k.Data}, p.StrideR, p.StrideC)
		return requant(outs[0], in.Scale*k.Scale).Encode(), nil
	case op == isa.FullyConnected:
		if err := need(2); err != nil {
			return nil, err
		}
		w, x := operands[0], operands[1]
		if x.Rows != 1 {
			return nil, fmt.Errorf("%w: FullyConnected vector operand must be 1 x N", errBadInstruction)
		}
		if x.Cols != w.Cols {
			return nil, fmt.Errorf("%w: vector length %d != weight cols %d", errBadInstruction, x.Cols, w.Cols)
		}
		res := fullyConnected(w.Data, x.Data.Row(0))
		wide := tensor.NewI32(1, len(res))
		copy(wide.Row(0), res)
		return requant(wide, w.Scale*x.Scale).Encode(), nil
	case op.Pairwise():
		if err := need(2); err != nil {
			return nil, err
		}
		a, b := operands[0], operands[1]
		if a.Rows != b.Rows || a.Cols != b.Cols {
			return nil, fmt.Errorf("%w: pairwise shape mismatch", errBadInstruction)
		}
		var wide *tensor.MatrixI32
		var combined float32
		switch op {
		case isa.Add:
			if a.Scale != b.Scale {
				return nil, fmt.Errorf("%w: add needs a joint scale", errBadInstruction)
			}
			wide, combined = Add(a.Data, b.Data), a.Scale
		case isa.Sub:
			if a.Scale != b.Scale {
				return nil, fmt.Errorf("%w: sub needs a joint scale", errBadInstruction)
			}
			wide, combined = Sub(a.Data, b.Data), a.Scale
		default:
			wide, combined = Mul(a.Data, b.Data), a.Scale*b.Scale
		}
		return requant(wide, combined).Encode(), nil
	case op == isa.Crop:
		if err := need(1); err != nil {
			return nil, err
		}
		a := operands[0]
		if p.R0 < 0 || p.C0 < 0 || p.Rows <= 0 || p.Cols <= 0 ||
			p.R0+p.Rows > a.Rows || p.C0+p.Cols > a.Cols {
			return nil, fmt.Errorf("%w: crop window out of bounds", errBadInstruction)
		}
		return model.FromI8(Crop(a.Data, p.R0, p.C0, p.Rows, p.Cols), a.Scale).Encode(), nil
	case op == isa.Ext:
		if err := need(1); err != nil {
			return nil, err
		}
		a := operands[0]
		if p.Rows < a.Rows || p.Cols < a.Cols {
			return nil, fmt.Errorf("%w: ext target smaller than input", errBadInstruction)
		}
		return model.FromI8(Ext(a.Data, p.Rows, p.Cols), a.Scale).Encode(), nil
	case op == isa.Mean:
		if err := need(1); err != nil {
			return nil, err
		}
		a := operands[0]
		sum, n := MeanSum(a.Data)
		wide := tensor.NewI32(1, 1)
		wide.Set(0, 0, int32(sum/int64(max(n, 1))))
		return requant(wide, a.Scale).Encode(), nil
	case op == isa.Max:
		if err := need(1); err != nil {
			return nil, err
		}
		a := operands[0]
		out := tensor.NewI8(1, 1)
		out.Set(0, 0, MaxVal(a.Data))
		return model.FromI8(out, a.Scale).Encode(), nil
	case op == isa.Tanh:
		if err := need(1); err != nil {
			return nil, err
		}
		a := operands[0]
		return model.FromI8(TanhLUT(a.Data, a.Scale), quant.QMax).Encode(), nil
	case op == isa.ReLU:
		if err := need(1); err != nil {
			return nil, err
		}
		a := operands[0]
		return model.FromI8(ReLU(a.Data), a.Scale).Encode(), nil
	}
	return nil, fmt.Errorf("%w: unhandled opcode %v", errBadInstruction, op)
}
