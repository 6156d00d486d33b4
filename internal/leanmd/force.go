package leanmd

import "math"

// Vec3 is a 3-component vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a * s.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Norm2 returns |a|².
func (a Vec3) Norm2() float64 { return a.X*a.X + a.Y*a.Y + a.Z*a.Z }

// ForceField holds the interaction parameters: a Lennard-Jones term (the
// van der Waals interactions of the paper) plus a cutoff-shifted Coulomb
// term (the electrostatic interactions), both truncated at Cutoff.
type ForceField struct {
	Epsilon float64 // LJ well depth
	Sigma   float64 // LJ zero-crossing distance
	Coulomb float64 // Coulomb constant (charge² prefactor absorbed in Charge)
	Cutoff  float64 // interaction cutoff radius
	Box     Vec3    // periodic box lengths (minimum-image convention)
}

// pairTerms is what PairInteraction derives from the force field alone.
// CellInteraction and SelfInteraction build it once per call instead of
// once per atom pair; every term is the expression PairInteraction used
// to evaluate inline, so the forces and energies are bit-identical.
type pairTerms struct {
	box, half Vec3 // periodic box and its half, for the minimum image
	rc2       float64
	sigma2    float64
	eps4      float64 // 4ε
	eps24     float64 // 24ε
	shiftLJ   float64 // the LJ potential at the cutoff, 4ε[(σ/rc)^12 − (σ/rc)^6]
	invRc     float64
	coulomb   float64
}

func (ff *ForceField) terms() pairTerms {
	rc2 := ff.Cutoff * ff.Cutoff
	sc6 := math.Pow(ff.Sigma*ff.Sigma/rc2, 3)
	return pairTerms{
		box:     ff.Box,
		half:    ff.Box.Scale(0.5),
		rc2:     rc2,
		sigma2:  ff.Sigma * ff.Sigma,
		eps4:    4 * ff.Epsilon,
		eps24:   24 * ff.Epsilon,
		shiftLJ: 4 * ff.Epsilon * (sc6*sc6 - sc6),
		invRc:   1 / ff.Cutoff,
		coulomb: ff.Coulomb,
	}
}

// nearestImage maps one displacement component into the minimum image,
// d − box·Round(d/box). Inside (−box/2, box/2) the correctly rounded
// quotient is below ½ in magnitude, so Round gives ±0 and the result is
// d itself, except that −0 comes out +0; the +0 keeps that.
func nearestImage(d, box, half float64) float64 {
	if -half < d && d < half {
		return d + 0
	}
	return d - box*math.Round(d/box)
}

// minImage maps a displacement into the minimum-image convention.
func (t *pairTerms) minImage(d Vec3) Vec3 {
	return Vec3{nearestImage(d.X, t.box.X, t.half.X), nearestImage(d.Y, t.box.Y, t.half.Y), nearestImage(d.Z, t.box.Z, t.half.Z)}
}

// pair is PairInteraction with the field's terms precomputed; kqi is
// Coulomb·qi.
func (t *pairTerms) pair(ri, rj Vec3, kqi, qj float64) (f Vec3, u float64) {
	d := t.minImage(ri.Sub(rj))
	r2 := d.Norm2()
	if r2 >= t.rc2 || r2 == 0 {
		return Vec3{}, 0
	}
	inv2 := 1 / r2
	// Lennard-Jones: U = 4ε[(σ/r)^12 − (σ/r)^6], shifted to zero at the
	// cutoff for energy continuity.
	s2 := t.sigma2 * inv2
	s6 := s2 * s2 * s2
	s12 := s6 * s6
	uLJ := t.eps4*(s12-s6) - t.shiftLJ
	fLJ := t.eps24 * (2*s12 - s6) * inv2 // magnitude/r factor

	// Shifted-force Coulomb: U = kqq(1/r − 1/rc), F = kqq/r².
	r := math.Sqrt(r2)
	k := kqi * qj
	uC := k * (1/r - t.invRc)
	fC := k / (r2 * r) // magnitude/r factor

	scale := fLJ + fC
	return d.Scale(scale), uLJ + uC
}

// PairInteraction computes the force on atom i at ri (due to atom j at
// rj) and the pair's potential energy. Newton's third law gives atom j
// the negated force. Charges qi, qj.
func (ff *ForceField) PairInteraction(ri, rj Vec3, qi, qj float64) (f Vec3, u float64) {
	t := ff.terms()
	return t.pair(ri, rj, t.coulomb*qi, qj)
}

// CellInteraction accumulates forces between two disjoint atom sets. fa
// and fb receive the per-atom forces (added in place); the return value
// is the pair potential energy.
func (ff *ForceField) CellInteraction(pa, pb []Vec3, qa, qb []float64, fa, fb []Vec3) float64 {
	t := ff.terms()
	var u float64
	for i, ri := range pa {
		kqi, fi := t.coulomb*qa[i], fa[i]
		for j, rj := range pb {
			f, du := t.pair(ri, rj, kqi, qb[j])
			fi = fi.Add(f)
			fb[j] = fb[j].Sub(f)
			u += du
		}
		fa[i] = fi
	}
	return u
}

// SelfInteraction accumulates forces among atoms of one cell (each
// unordered pair once).
func (ff *ForceField) SelfInteraction(p []Vec3, q []float64, f []Vec3) float64 {
	t := ff.terms()
	var u float64
	for i := 0; i < len(p); i++ {
		kqi, fi := t.coulomb*q[i], f[i]
		for j := i + 1; j < len(p); j++ {
			fv, du := t.pair(p[i], p[j], kqi, q[j])
			fi = fi.Add(fv)
			f[j] = f[j].Sub(fv)
			u += du
		}
		f[i] = fi
	}
	return u
}
