package simmpi

import "fmt"

// Cartesian process topologies, modeled after MPI_Cart_create and friends.
// The proxy applications use them to express halo exchanges over 1D rings
// and multi-dimensional lattices without hand-computing neighbor ranks.

// Cart is a Cartesian view of the communicator: ranks are laid out in
// row-major order over dims.
type Cart struct {
	proc     *Proc
	dims     []int
	periodic []bool
	coords   []int
}

// NewCart creates a Cartesian topology. The product of dims must equal the
// world size; periodic selects wraparound per dimension (len(periodic)
// must equal len(dims)).
func (p *Proc) NewCart(dims []int, periodic []bool) (*Cart, error) {
	if len(dims) == 0 || len(periodic) != len(dims) {
		return nil, fmt.Errorf("simmpi: cart needs matching dims/periodic, got %d/%d", len(dims), len(periodic))
	}
	prod := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("simmpi: invalid cart dimension %d", d)
		}
		prod *= d
	}
	if prod != p.size {
		return nil, fmt.Errorf("simmpi: cart dims %v hold %d ranks, world size is %d", dims, prod, p.size)
	}
	c := &Cart{
		proc:     p,
		dims:     append([]int(nil), dims...),
		periodic: append([]bool(nil), periodic...),
	}
	c.coords = c.coordsOf(p.rank)
	return c, nil
}

// Dims returns the topology extents.
func (c *Cart) Dims() []int { return append([]int(nil), c.dims...) }

// Coords returns this rank's coordinates.
func (c *Cart) Coords() []int { return append([]int(nil), c.coords...) }

// coordsOf converts a rank to coordinates (row-major).
func (c *Cart) coordsOf(rank int) []int {
	coords := make([]int, len(c.dims))
	for i := len(c.dims) - 1; i >= 0; i-- {
		coords[i] = rank % c.dims[i]
		rank /= c.dims[i]
	}
	return coords
}

// Rank converts coordinates to a rank, applying wraparound on periodic
// dimensions. ok is false when a non-periodic coordinate is out of range.
func (c *Cart) Rank(coords []int) (rank int, ok bool) {
	if len(coords) != len(c.dims) {
		return -1, false
	}
	rank = 0
	for i, x := range coords {
		d := c.dims[i]
		if c.periodic[i] {
			x = ((x % d) + d) % d
		} else if x < 0 || x >= d {
			return -1, false
		}
		rank = rank*d + x
	}
	return rank, true
}

// ProcNull is the rank returned by Shift for a missing neighbor at a
// non-periodic boundary (MPI_PROC_NULL).
const ProcNull = -1

// Shift returns the source and destination ranks for a shift by disp along
// dim (MPI_Cart_shift semantics): dst is the rank disp steps in the
// positive direction, src the rank the same distance in the negative
// direction. Missing neighbors are ProcNull. Shift allocates nothing: the
// halo exchanges call it once per message.
func (c *Cart) Shift(dim, disp int) (src, dst int) {
	if dim < 0 || dim >= len(c.dims) {
		panic(fmt.Sprintf("simmpi: Shift on invalid dimension %d", dim))
	}
	return c.neighbor(dim, -disp), c.neighbor(dim, disp)
}

// neighbor returns the rank disp steps from this rank along dim, with
// wraparound on a periodic dimension, or ProcNull past a non-periodic
// boundary. It is Rank on this rank's coordinates with one of them moved:
// in row-major order that moves the rank by the shift times the product of
// the later extents.
func (c *Cart) neighbor(dim, disp int) int {
	d := c.dims[dim]
	x := c.coords[dim] + disp
	if c.periodic[dim] {
		x = ((x % d) + d) % d
	} else if x < 0 || x >= d {
		return ProcNull
	}
	stride := 1
	for _, e := range c.dims[dim+1:] {
		stride *= e
	}
	return c.proc.rank + (x-c.coords[dim])*stride
}

// Exchange performs a halo exchange along dim, like MPI_Sendrecv: it sends
// send disp steps in the positive direction and receives the opposite
// neighbor's halo into recv, copying min(len(recv), halo length) elements;
// a nil recv discards the halo. At a non-periodic boundary the missing
// transfer is skipped and recv is left as it was. The caller owns both
// buffers before and after the call. The runtime owns the wire buffers in
// between: the received one goes back to this rank's freelist, where the
// rank's next send picks it up, and the send and receive requests live on
// the stack, so a steady stream of exchanges allocates nothing.
func (c *Cart) Exchange(dim, disp int, send, recv []float64) {
	p := c.proc
	// Run inside an MPI region so call-path profiles attribute the halo
	// volume to an MPI call site, as Score-P would.
	p.collective("MPI_Sendrecv", len(send), func() {
		src, dst := c.Shift(dim, disp)
		var sreq, rreq Request
		if dst != ProcNull {
			p.isend(&sreq, dst, send)
		}
		if src != ProcNull {
			p.irecv(&rreq, src)
			msg := rreq.Wait()
			copy(recv, msg)
			p.release(msg)
		}
		if dst != ProcNull {
			sreq.Wait()
		}
	})
}

// DimsCreate factorizes size into ndims balanced extents, mirroring
// MPI_Dims_create: extents are as close to each other as possible, in
// non-increasing order.
func DimsCreate(size, ndims int) ([]int, error) {
	if size < 1 || ndims < 1 {
		return nil, fmt.Errorf("simmpi: DimsCreate(%d, %d)", size, ndims)
	}
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Repeatedly assign the largest prime factor to the smallest extent.
	factors := primeFactors(size)
	for i := len(factors) - 1; i >= 0; i-- {
		minIdx := 0
		for j := 1; j < ndims; j++ {
			if dims[j] < dims[minIdx] {
				minIdx = j
			}
		}
		dims[minIdx] *= factors[i]
	}
	// Non-increasing order, like MPI.
	for i := 0; i < ndims; i++ {
		for j := i + 1; j < ndims; j++ {
			if dims[j] > dims[i] {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims, nil
}

// primeFactors returns the prime factorization in ascending order.
func primeFactors(n int) []int {
	var out []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			out = append(out, f)
			n /= f
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}
