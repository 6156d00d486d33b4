package leanmd

import (
	"math"
	"testing"
)

// refPairInteraction is the reference the kernels must match bit for
// bit: every field constant recomputed per atom pair, and the minimum
// image always taken through Round.
func refPairInteraction(ff *ForceField, ri, rj Vec3, qi, qj float64) (f Vec3, u float64) {
	d := refMinImage(ff, ri.Sub(rj))
	r2 := d.Norm2()
	rc2 := ff.Cutoff * ff.Cutoff
	if r2 >= rc2 || r2 == 0 {
		return Vec3{}, 0
	}
	inv2 := 1 / r2
	s2 := ff.Sigma * ff.Sigma * inv2
	s6 := s2 * s2 * s2
	s12 := s6 * s6
	sc6 := math.Pow(ff.Sigma*ff.Sigma/rc2, 3)
	uLJ := 4*ff.Epsilon*(s12-s6) - 4*ff.Epsilon*(sc6*sc6-sc6)
	fLJ := 24 * ff.Epsilon * (2*s12 - s6) * inv2
	r := math.Sqrt(r2)
	k := ff.Coulomb * qi * qj
	uC := k * (1/r - 1/ff.Cutoff)
	fC := k / (r2 * r)
	return d.Scale(fLJ + fC), uLJ + uC
}

func refMinImage(ff *ForceField, d Vec3) Vec3 {
	d.X -= ff.Box.X * math.Round(d.X/ff.Box.X)
	d.Y -= ff.Box.Y * math.Round(d.Y/ff.Box.Y)
	d.Z -= ff.Box.Z * math.Round(d.Z/ff.Box.Z)
	return d
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVecBits(a, b Vec3) bool {
	return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) && sameBits(a.Z, b.Z)
}

// TestKernelMatchesUnhoistedBitwise: the cell-pair kernels, with their
// field terms computed once per call and the Round skipped inside half a
// box, reproduce the per-pair arithmetic bit for bit on every pair of the
// benchmark's 6×6×6 system of 12 atoms per cell.
func TestKernelMatchesUnhoistedBitwise(t *testing.T) {
	p := DefaultParams()
	p.NX, p.NY, p.NZ = 6, 6, 6
	p.AtomsPerCell = 12
	g, err := NewGeometry(p.NX, p.NY, p.NZ)
	if err != nil {
		t.Fatal(err)
	}
	ff := p.Field()
	s := BuildSystem(p, g)
	n := p.AtomsPerCell
	q := p.Charges()
	atoms := func(c int) []Vec3 { return s.Pos[c*n : (c+1)*n] }
	for _, cp := range g.Pairs {
		pa, pb := atoms(cp.A), atoms(cp.B)
		fa, fb := make([]Vec3, n), make([]Vec3, n)
		wantA, wantB := make([]Vec3, n), make([]Vec3, n)
		var u, want float64
		if cp.Self() {
			u = ff.SelfInteraction(pa, q, fa)
			for i := range pa {
				for j := i + 1; j < n; j++ {
					f, du := refPairInteraction(ff, pa[i], pa[j], q[i], q[j])
					wantA[i] = wantA[i].Add(f)
					wantA[j] = wantA[j].Sub(f)
					want += du
				}
			}
		} else {
			u = ff.CellInteraction(pa, pb, q, q, fa, fb)
			for i := range pa {
				for j := range pb {
					f, du := refPairInteraction(ff, pa[i], pb[j], q[i], q[j])
					wantA[i] = wantA[i].Add(f)
					wantB[j] = wantB[j].Sub(f)
					want += du
				}
			}
		}
		if !sameBits(u, want) {
			t.Fatalf("pair %+v: energy %v, unhoisted %v", cp, u, want)
		}
		for i := range fa {
			if !sameVecBits(fa[i], wantA[i]) || !sameVecBits(fb[i], wantB[i]) {
				t.Fatalf("pair %+v atom %d: forces %v %v, unhoisted %v %v", cp, i, fa[i], fb[i], wantA[i], wantB[i])
			}
		}
	}
}

// TestMinImageEdgesBitwise: at and next to ±box/2, and at ±0, the
// shortcut minimum image and the pair interaction agree with Round's bit
// for bit, signed zero included. The box is small enough that a
// half-box displacement lies inside the cutoff.
func TestMinImageEdgesBitwise(t *testing.T) {
	ff := &ForceField{Epsilon: 0.05, Sigma: 0.2, Coulomb: 1, Cutoff: 1, Box: Vec3{1.5, 1.1, 1.7}}
	tm := ff.terms()
	edges := func(box float64) []float64 {
		h := box / 2
		return []float64{
			0, math.Copysign(0, -1), 0.3, -0.3,
			h, -h, math.Nextafter(h, 0), math.Nextafter(-h, 0),
			math.Nextafter(h, box), math.Nextafter(-h, -box),
			box, -box, 1.25 * box, -1.25 * box,
		}
	}
	for _, dx := range edges(ff.Box.X) {
		for _, dy := range edges(ff.Box.Y) {
			for _, dz := range []float64{0, math.Copysign(0, -1), ff.Box.Z / 2, -ff.Box.Z / 2, 0.1} {
				d := Vec3{dx, dy, dz}
				if got, want := tm.minImage(d), refMinImage(ff, d); !sameVecBits(got, want) {
					t.Fatalf("minImage(%v) = %v, Round gives %v", d, got, want)
				}
				// ri − (+0) is d exactly, −0 components included.
				ri, rj := d, Vec3{}
				f, u := ff.PairInteraction(ri, rj, 0.05, -0.05)
				wf, wu := refPairInteraction(ff, ri, rj, 0.05, -0.05)
				if !sameVecBits(f, wf) || !sameBits(u, wu) {
					t.Fatalf("PairInteraction at %v: %v %v, unhoisted %v %v", d, f, u, wf, wu)
				}
			}
		}
	}
}
