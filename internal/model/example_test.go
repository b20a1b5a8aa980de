package model_test

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Encode a known 4x4 input and inspect the bytes, the way the paper
// reverse-engineered the format (section 3.3): the 120-byte header
// ends in the data-section size, the data section holds the quantized
// values row by row, and the metadata carries rows, cols and the
// scaling factor.
func Example() {
	m := tensor.FromSlice(4, 4, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		-1, -2, -3, -4,
		0, 10, 20, 30,
	})
	mod := model.FromMatrix(m, 4, quant.ParamsFor(m))
	buf := mod.Encode()

	fmt.Printf("%d bytes\n", len(buf))
	fmt.Printf("header: % x ... % x\n", buf[:8], buf[model.HeaderSize-4:model.HeaderSize])
	for r := 0; r < mod.Rows; r++ {
		fmt.Printf("row %d: % x\n", r, buf[model.HeaderSize+r*mod.Cols:model.HeaderSize+(r+1)*mod.Cols])
	}
	fmt.Printf("metadata: % x\n", buf[model.HeaderSize+mod.Rows*mod.Cols:])

	dec, err := model.Decode(buf)
	if err != nil {
		fmt.Println("round-trip:", err)
		return
	}
	fmt.Printf("round-trip: %dx%d, scale %g\n", dec.Rows, dec.Cols, dec.Scale)
	// Output:
	// 148 bytes
	// header: 47 50 54 50 55 4d 30 31 ... 10 00 00 00
	// row 0: 01 02 03 04
	// row 1: 05 06 07 08
	// row 2: ff fe fd fc
	// row 3: 00 0a 14 1e
	// metadata: 04 00 00 00 04 00 00 00 00 00 80 3f
	// round-trip: 4x4, scale 1
}
