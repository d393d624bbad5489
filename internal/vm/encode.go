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
//	magic "GRVM3\x00"
//	u16 name length, name bytes
//	u16 symbol count, then per symbol: u16 length + bytes
//	u32 instruction count, then per instruction:
//	    u8 op, u8 dst, u8 lhs, u8 src, i32 off, i32 cell, f64 imm
//	u8 certificate present (0/1); when present:
//	    u32 claimed MaxSteps
//	    u8 flags (bit 0 = DivProven)
//	    u32 block invariant count, then per block:
//	        u32 pc, u32 init bitset, u8 serialized register count,
//	        then per register: u8 index, u8 flags (bit 0 = Num,
//	        bit 1 = NaN), f64 lo, f64 hi
//	        (registers whose interval is top are omitted)
//
// Decode refuses the earlier "GRVM1" and "GRVM2" images: they predate
// the lhs operand, so their ALU records are two-address (dst op= src)
// and would mean something else read as three-address ones.
//
// Decode validates lengths but does NOT verify the program, and it does
// NOT validate the certificate; loaders must run CheckCertificate (or a
// full Verify) before trusting either, exactly as with freshly compiled
// programs.
const imageMagic = "GRVM3\x00"

// imageLimit bounds decoded sizes against corrupt or hostile images.
const imageLimit = 1 << 20

// Encode writes the program image to w in one Write. It checks every
// length before writing, so a program that cannot be encoded writes
// nothing.
func (p *Program) Encode(w io.Writer) error {
	size, err := p.imageSize()
	if err != nil {
		return err
	}
	_, err = w.Write(p.appendImage(make([]byte, 0, size)))
	return err
}

// Record sizes of the image format.
const (
	insnSize = 20 // u8 op, u8 dst, u8 lhs, u8 src, i32 off, i32 cell, f64 imm
	regSize  = 18 // u8 index, u8 flags, f64 lo, f64 hi
)

// imageSize checks every length the image format bounds and returns
// the image's size in bytes.
func (p *Program) imageSize() (int, error) {
	size := len(imageMagic) + 2 + len(p.Name)
	if len(p.Name) > math.MaxUint16 {
		return 0, fmt.Errorf("vm: string too long to encode (%d bytes)", len(p.Name))
	}
	if len(p.Symbols) > math.MaxUint16 {
		return 0, fmt.Errorf("vm: too many symbols (%d)", len(p.Symbols))
	}
	size += 2
	for _, s := range p.Symbols {
		if len(s) > math.MaxUint16 {
			return 0, fmt.Errorf("vm: string too long to encode (%d bytes)", len(s))
		}
		size += 2 + len(s)
	}
	size += 4 + insnSize*len(p.Code) + 1
	c := p.Cert
	if c == nil {
		return size, nil
	}
	if c.MaxSteps < 0 || c.MaxSteps > imageLimit {
		return 0, fmt.Errorf("vm: certificate MaxSteps %d not encodable", c.MaxSteps)
	}
	if len(c.Blocks) > imageLimit {
		return 0, fmt.Errorf("vm: too many block invariants (%d)", len(c.Blocks))
	}
	size += 4 + 1 + 4
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if b.PC < 0 || b.PC > imageLimit {
			return 0, fmt.Errorf("vm: block invariant pc %d not encodable", b.PC)
		}
		size += 4 + 4 + 1 + regSize*nonTopRegs(b)
	}
	return size, nil
}

// nonTopRegs counts the registers a block invariant serializes: the
// format omits those whose interval is top.
func nonTopRegs(b *BlockInvariant) int {
	n := 0
	for r := range b.Regs {
		if b.Regs[r] != topRegs[r] {
			n++
		}
	}
	return n
}

// appendImage appends p's image to b. imageSize has checked p's lengths.
func (p *Program) appendImage(b []byte) []byte {
	le := binary.LittleEndian
	b = append(b, imageMagic...)
	b = append(le.AppendUint16(b, uint16(len(p.Name))), p.Name...)
	b = le.AppendUint16(b, uint16(len(p.Symbols)))
	for _, s := range p.Symbols {
		b = append(le.AppendUint16(b, uint16(len(s))), s...)
	}
	b = le.AppendUint32(b, uint32(len(p.Code)))
	for _, in := range p.Code {
		b = append(b, uint8(in.Op), in.Dst, in.Lhs, in.Src)
		b = le.AppendUint32(b, uint32(in.Off))
		b = le.AppendUint32(b, uint32(in.Cell))
		b = le.AppendUint64(b, math.Float64bits(in.Imm))
	}
	c := p.Cert
	if c == nil {
		return append(b, 0)
	}
	var flags uint8
	if c.DivProven {
		flags |= 1
	}
	b = le.AppendUint32(append(b, 1), uint32(c.MaxSteps))
	b = le.AppendUint32(append(b, flags), uint32(len(c.Blocks)))
	for i := range c.Blocks {
		blk := &c.Blocks[i]
		b = le.AppendUint32(b, uint32(blk.PC))
		b = le.AppendUint32(b, blk.Init)
		b = append(b, uint8(nonTopRegs(blk)))
		for r, iv := range blk.Regs {
			if iv == topRegs[r] {
				continue
			}
			var rf uint8
			if iv.Num {
				rf |= 1
			}
			if iv.NaN {
				rf |= 2
			}
			b = append(b, uint8(r), rf)
			b = le.AppendUint64(b, math.Float64bits(iv.Lo))
			b = le.AppendUint64(b, math.Float64bits(iv.Hi))
		}
	}
	return b
}

// imgReader reads fixed-size records through one scratch buffer.
// Parsing by hand instead of binary.Read keeps reflection (and a heap
// allocation per record) off the image-decode path, which sits in front
// of the certificate check at monitor load time.
type imgReader struct {
	r   byteReader
	buf [insnSize]byte // the largest record: one instruction
}

// byteReader is a source Decode reads from directly.
type byteReader interface {
	io.Reader
	io.ByteReader
}

func (d *imgReader) read(n int) ([]byte, error) {
	b := d.buf[:n]
	_, err := io.ReadFull(d.r, b)
	return b, err
}

func (d *imgReader) u8() (uint8, error) { return d.r.ReadByte() }

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
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Decode reads a program image produced by Encode. From a source that
// is an io.ByteReader (a bytes.Buffer, bytes.Reader or bufio.Reader) it
// reads exactly the image, so images written back to back decode one
// after another. Any other reader is wrapped in a bufio.Reader, which
// may read past the image's end: those bytes are consumed and lost.
func Decode(r io.Reader) (*Program, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	d := &imgReader{r: br}
	magic, err := d.read(len(imageMagic))
	if err != nil {
		return nil, fmt.Errorf("vm: reading image magic: %w", err)
	}
	if string(magic) != imageMagic {
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
	raw := make([]byte, int(nCode)*insnSize)
	if _, err := io.ReadFull(d.r, raw); err != nil {
		return nil, err
	}
	p.Code = make([]Instr, nCode)
	for i := range p.Code {
		b := raw[i*insnSize : (i+1)*insnSize]
		p.Code[i] = Instr{Op: Op(b[0]), Dst: b[1], Lhs: b[2], Src: b[3],
			Off:  int32(binary.LittleEndian.Uint32(b[4:8])),
			Cell: int32(binary.LittleEndian.Uint32(b[8:12])),
			Imm:  math.Float64frombits(binary.LittleEndian.Uint64(b[12:20]))}
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
			rb, err := d.read(regSize)
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
