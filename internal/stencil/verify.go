package stencil

// RunSequential computes the reference solution: the same mesh, initial
// condition, Dirichlet boundary, and Jacobi update, executed serially.
// Because each cell's update is a pure function of the previous grid, the
// parallel decomposition must reproduce this result bit-for-bit.
func RunSequential(width, height, steps int) []float64 {
	cur := make([]float64, width*height)
	next := make([]float64, width*height)
	fillInit(cur, 0, 0, width, height, width, height)
	for s := 0; s < steps; s++ {
		for y := 0; y < height; y++ {
			for x := 0; x < width; x++ {
				i := y*width + x
				if x == 0 || y == 0 || x == width-1 || y == height-1 {
					next[i] = cur[i]
					continue
				}
				next[i] = 0.25 * (cur[i-1] + cur[i+1] + cur[i-width] + cur[i+width])
			}
		}
		cur, next = next, cur
	}
	return cur
}

// Checksum sums a grid (matching the per-block checksum reduction up to
// floating-point association order).
func Checksum(grid []float64) float64 {
	var s float64
	for _, v := range grid {
		s += v
	}
	return s
}
