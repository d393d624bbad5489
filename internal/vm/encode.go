package vm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Monitor image format: a compact binary serialization of a Program, so
// compiled guardrails can be shipped (grailc -o). No command reads an
// image back; Decode's readers are the benchmark and tests. Layout
// (little endian):
//
//	magic "GRVM2\x00"
//	u16 name length, name bytes
//	u16 symbol count, then per symbol: u16 length + bytes
//	u32 instruction count, then per instruction:
//	    u8 op, u8 dst, u8 src, i32 off, i32 cell, f64 imm
//	u8 certificate present (0/1); when present:
//	    u32 claimed MaxSteps
//	    u8 flags (bit 0 = DivProven)
//	    u32 block invariant count, then per block:
//	        u32 pc, u32 init bitset, u8 serialized register count,
//	        then per register: u8 index, u8 flags (bit 0 = Num,
//	        bit 1 = NaN), f64 lo, f64 hi
//	        (registers whose interval is top are omitted)
//
// Decode also accepts the previous "GRVM1\x00" format, which is the
// same layout without the trailing certificate section.
//
// Decode validates lengths but does NOT verify the program, and it does
// NOT validate the certificate; loaders must run CheckCertificate (or a
// full Verify) before trusting either, exactly as with freshly compiled
// programs.
const (
	imageMagic   = "GRVM2\x00"
	imageMagicV1 = "GRVM1\x00"
)

// imageLimit bounds decoded sizes against corrupt or hostile images.
const imageLimit = 1 << 20

// Encode writes the program image to w.
func (p *Program) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return err
	}
	writeStr := func(s string) error {
		if len(s) > math.MaxUint16 {
			return fmt.Errorf("vm: string too long to encode (%d bytes)", len(s))
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeStr(p.Name); err != nil {
		return err
	}
	if len(p.Symbols) > math.MaxUint16 {
		return fmt.Errorf("vm: too many symbols (%d)", len(p.Symbols))
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(p.Symbols))); err != nil {
		return err
	}
	for _, s := range p.Symbols {
		if err := writeStr(s); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(p.Code))); err != nil {
		return err
	}
	for _, in := range p.Code {
		if err := binary.Write(bw, binary.LittleEndian, struct {
			Op, Dst, Src uint8
			Off, Cell    int32
			Imm          float64
		}{uint8(in.Op), in.Dst, in.Src, in.Off, in.Cell, in.Imm}); err != nil {
			return err
		}
	}
	if err := encodeCert(bw, p.Cert); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeCert writes the optional certificate section.
func encodeCert(bw *bufio.Writer, c *Certificate) error {
	if c == nil {
		return bw.WriteByte(0)
	}
	if err := bw.WriteByte(1); err != nil {
		return err
	}
	if c.MaxSteps < 0 || c.MaxSteps > imageLimit {
		return fmt.Errorf("vm: certificate MaxSteps %d not encodable", c.MaxSteps)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(c.MaxSteps)); err != nil {
		return err
	}
	var flags uint8
	if c.DivProven {
		flags |= 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	if len(c.Blocks) > imageLimit {
		return fmt.Errorf("vm: too many block invariants (%d)", len(c.Blocks))
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(c.Blocks))); err != nil {
		return err
	}
	top := TopInterval()
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if b.PC < 0 || b.PC > imageLimit {
			return fmt.Errorf("vm: block invariant pc %d not encodable", b.PC)
		}
		if err := binary.Write(bw, binary.LittleEndian, struct{ PC, Init uint32 }{uint32(b.PC), b.Init}); err != nil {
			return err
		}
		nregs := 0
		for r := 0; r < NumRegs; r++ {
			if b.Regs[r] != top {
				nregs++
			}
		}
		if err := bw.WriteByte(uint8(nregs)); err != nil {
			return err
		}
		for r := 0; r < NumRegs; r++ {
			iv := b.Regs[r]
			if iv == top {
				continue
			}
			var rf uint8
			if iv.Num {
				rf |= 1
			}
			if iv.NaN {
				rf |= 2
			}
			if err := binary.Write(bw, binary.LittleEndian, struct {
				Idx, Flags uint8
				Lo, Hi     float64
			}{uint8(r), rf, iv.Lo, iv.Hi}); err != nil {
				return err
			}
		}
	}
	return nil
}

// imgReader reads fixed-size records through one scratch buffer.
// Parsing by hand instead of binary.Read keeps reflection (and a heap
// allocation per record) off the image-decode path, which sits in front
// of the certificate check at monitor load time.
type imgReader struct {
	br  *bufio.Reader
	buf [19]byte // the largest record: one instruction
}

func (d *imgReader) read(n int) ([]byte, error) {
	b := d.buf[:n]
	_, err := io.ReadFull(d.br, b)
	return b, err
}

func (d *imgReader) u8() (uint8, error) { return d.br.ReadByte() }

func (d *imgReader) u16() (uint16, error) {
	b, err := d.read(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *imgReader) u32() (uint32, error) {
	b, err := d.read(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *imgReader) str() (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Decode reads a program image produced by Encode.
func Decode(r io.Reader) (*Program, error) {
	d := &imgReader{br: bufio.NewReader(r)}
	magic, err := d.read(len(imageMagic))
	if err != nil {
		return nil, fmt.Errorf("vm: reading image magic: %w", err)
	}
	legacy := string(magic) == imageMagicV1
	if string(magic) != imageMagic && !legacy {
		return nil, fmt.Errorf("vm: bad image magic %q", magic)
	}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	nSyms, err := d.u16()
	if err != nil {
		return nil, err
	}
	p := &Program{Name: name, Symbols: make([]string, nSyms)}
	for i := range p.Symbols {
		if p.Symbols[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	nCode, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nCode > imageLimit {
		return nil, fmt.Errorf("vm: implausible instruction count %d", nCode)
	}
	// One bulk read for the whole code section: the per-record loop then
	// parses from memory, which is measurably cheaper than 4k small
	// reads when a loader checks a shipped certificate.
	raw := make([]byte, int(nCode)*19)
	if _, err := io.ReadFull(d.br, raw); err != nil {
		return nil, err
	}
	p.Code = make([]Instr, nCode)
	for i := range p.Code {
		b := raw[i*19 : i*19+19]
		p.Code[i] = Instr{Op: Op(b[0]), Dst: b[1], Src: b[2],
			Off:  int32(binary.LittleEndian.Uint32(b[3:7])),
			Cell: int32(binary.LittleEndian.Uint32(b[7:11])),
			Imm:  math.Float64frombits(binary.LittleEndian.Uint64(b[11:19]))}
	}
	if legacy {
		return p, nil
	}
	cert, err := decodeCert(d)
	if err != nil {
		return nil, err
	}
	p.Cert = cert
	return p, nil
}

// decodeCert reads the certificate section. It bounds sizes so hostile
// images cannot force huge allocations, but performs no semantic
// validation — that is CheckCertificate's job.
func decodeCert(d *imgReader) (*Certificate, error) {
	present, err := d.u8()
	if err != nil {
		return nil, fmt.Errorf("vm: reading certificate flag: %w", err)
	}
	switch present {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("vm: bad certificate flag %d", present)
	}
	maxSteps, err := d.u32()
	if err != nil {
		return nil, err
	}
	if maxSteps > imageLimit {
		return nil, fmt.Errorf("vm: implausible certificate MaxSteps %d", maxSteps)
	}
	flags, err := d.u8()
	if err != nil {
		return nil, err
	}
	c := &Certificate{MaxSteps: int(maxSteps), DivProven: flags&1 != 0}
	nBlocks, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nBlocks > imageLimit {
		return nil, fmt.Errorf("vm: implausible block invariant count %d", nBlocks)
	}
	c.Blocks = make([]BlockInvariant, nBlocks)
	for i := range c.Blocks {
		hdr, err := d.read(8)
		if err != nil {
			return nil, err
		}
		pc := binary.LittleEndian.Uint32(hdr[0:4])
		if pc > imageLimit {
			return nil, fmt.Errorf("vm: implausible block invariant pc %d", pc)
		}
		b := &c.Blocks[i]
		b.PC, b.Init = int(pc), binary.LittleEndian.Uint32(hdr[4:8])
		b.Regs = topRegs // serialized registers overwrite below
		nregs, err := d.u8()
		if err != nil {
			return nil, err
		}
		if int(nregs) > NumRegs {
			return nil, fmt.Errorf("vm: implausible register count %d in block invariant", nregs)
		}
		for j := 0; j < int(nregs); j++ {
			rb, err := d.read(18)
			if err != nil {
				return nil, err
			}
			idx, rf := rb[0], rb[1]
			if int(idx) >= NumRegs {
				return nil, fmt.Errorf("vm: register index %d out of range in block invariant", idx)
			}
			b.Regs[idx] = Interval{Num: rf&1 != 0, NaN: rf&2 != 0,
				Lo: math.Float64frombits(binary.LittleEndian.Uint64(rb[2:10])),
				Hi: math.Float64frombits(binary.LittleEndian.Uint64(rb[10:18]))}
		}
	}
	return c, nil
}

// topRegs is the all-top register block decodeCert starts each block
// invariant from; the image format serializes only non-top intervals.
var topRegs = func() (r [NumRegs]Interval) {
	for i := range r {
		r[i] = TopInterval()
	}
	return
}()
