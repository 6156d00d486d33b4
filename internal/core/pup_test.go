package core

import (
	"bytes"
	"math"
	"testing"
)

// pupEverything exercises the fixed-width and length-prefixed visitors.
type pupEverything struct {
	i   int
	u64 uint64
	f   float64
	b   bool
	s   string
	by  []byte
	fs  []float64
}

func (v *pupEverything) PUP(p *PUP) {
	p.Int(&v.i)
	p.Uint64(&v.u64)
	p.Float64(&v.f)
	p.Bool(&v.b)
	p.String(&v.s)
	p.Bytes(&v.by)
	p.Float64s(&v.fs)
}

func TestPUPRoundTrip(t *testing.T) {
	in := &pupEverything{
		i: -42, u64: math.MaxUint64, f: math.Inf(-1), b: true,
		s: "hello, grid", by: []byte{0, 1, 255},
		fs: []float64{0, -0.0, math.Pi, math.NaN()},
	}
	data, err := PUPPack(in)
	if err != nil {
		t.Fatal(err)
	}
	out := &pupEverything{}
	if err := PUPUnpack(out, data); err != nil {
		t.Fatal(err)
	}
	// NaN defeats == on the struct; compare via a repack instead, which is
	// also the invariant migration relies on: pack∘unpack∘pack is identity.
	data2, err := PUPPack(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("pack→unpack→pack not byte-identical:\n%x\n%x", data, data2)
	}
	if out.i != in.i || out.s != in.s || out.b != in.b {
		t.Errorf("scalars: %+v != %+v", out, in)
	}
}

func TestPUPUnpackRejectsBadInput(t *testing.T) {
	good, err := PUPPack(&pupEverything{s: "x", by: []byte{1}, fs: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every byte boundary must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if err := PUPUnpack(&pupEverything{}, good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Trailing garbage is rejected too.
	if err := PUPUnpack(&pupEverything{}, append(append([]byte(nil), good...), 0xEE)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// pupZeroMin declares a per-element minimum of 0, which PUPSlice's
// contract forbids; untrusted bytes must still get an error, not a
// divide-by-zero on the transport reader.
type pupZeroMin struct{ xs []struct{} }

func (v *pupZeroMin) PUP(p *PUP) {
	PUPSlice(p, &v.xs, 0, 0, func(*struct{}, *PUP) {})
}

func TestPUPSliceZeroMinElemBytes(t *testing.T) {
	if err := PUPUnpack(&pupZeroMin{}, []byte{0x05}); err == nil {
		t.Error("count 5 with no bytes behind it accepted")
	}
}

// pupValidating demonstrates the Errorf contract: unpack-side validation
// failures surface as errors from PUPUnpack.
type pupValidating struct{ n int }

func (v *pupValidating) PUP(p *PUP) {
	p.Int(&v.n)
	if p.Unpacking() && v.n < 0 {
		p.Errorf("negative count %d", v.n)
	}
}

func TestPUPErrorf(t *testing.T) {
	data, err := PUPPack(&pupValidating{n: -3})
	if err != nil {
		t.Fatal(err)
	}
	err = PUPUnpack(&pupValidating{}, data)
	if err == nil || err.Error() != "negative count -3" {
		t.Errorf("validation error: %v", err)
	}
}

// pupAsymmetric packs more than it sizes; PUPPack must refuse it.
type pupAsymmetric struct{}

func (pupAsymmetric) PUP(p *PUP) {
	x := 1
	p.Int(&x)
	if p.mode == pupPacking {
		p.Int(&x)
	}
}

func TestPUPAsymmetryDetected(t *testing.T) {
	if _, err := PUPPack(pupAsymmetric{}); err == nil {
		t.Error("asymmetric PUP method packed")
	}
}

// fuzzPUPBlob is a generic state carrier for the fuzzer.
type fuzzPUPBlob struct {
	a  uint64
	f  float64
	s  string
	by []byte
	fs []float64
}

func (v *fuzzPUPBlob) PUP(p *PUP) {
	p.Uint64(&v.a)
	p.Float64(&v.f)
	p.String(&v.s)
	p.Bytes(&v.by)
	p.Float64s(&v.fs)
}

// FuzzPUPUnpack feeds arbitrary bytes to PUPUnpack (must never panic) and
// checks the pack→unpack→pack identity on whatever round-trips.
func FuzzPUPUnpack(f *testing.F) {
	seed, _ := PUPPack(&fuzzPUPBlob{a: 1, f: 2.5, s: "seed", by: []byte{9}, fs: []float64{1, 2}})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := &fuzzPUPBlob{}
		if err := PUPUnpack(v, data); err != nil {
			return
		}
		repacked, err := PUPPack(v)
		if err != nil {
			t.Fatalf("unpacked fine but repack failed: %v", err)
		}
		if !bytes.Equal(repacked, data) {
			t.Fatalf("repack differs from accepted input:\n%x\n%x", data, repacked)
		}
	})
}
