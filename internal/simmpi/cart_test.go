package simmpi

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		size, ndims int
		want        []int
	}{
		{12, 2, []int{4, 3}},
		{16, 2, []int{4, 4}},
		{16, 4, []int{2, 2, 2, 2}},
		{7, 2, []int{7, 1}},
		{1, 3, []int{1, 1, 1}},
		{64, 3, []int{4, 4, 4}},
	}
	for _, c := range cases {
		got, err := DimsCreate(c.size, c.ndims)
		if err != nil {
			t.Fatalf("DimsCreate(%d,%d): %v", c.size, c.ndims, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("DimsCreate(%d,%d) = %v, want %v", c.size, c.ndims, got, c.want)
		}
	}
	if _, err := DimsCreate(0, 2); err == nil {
		t.Error("expected error for size 0")
	}
}

// Property: DimsCreate extents multiply to size and are non-increasing.
func TestDimsCreateProperty(t *testing.T) {
	f := func(sz uint16, nd uint8) bool {
		size := int(sz%4096) + 1
		ndims := int(nd%4) + 1
		dims, err := DimsCreate(size, ndims)
		if err != nil {
			return false
		}
		prod := 1
		for i, d := range dims {
			prod *= d
			if i > 0 && dims[i] > dims[i-1] {
				return false
			}
		}
		return prod == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCartCoordsRankRoundTrip(t *testing.T) {
	_, err := Run(12, func(p *Proc) error {
		c, err := p.NewCart([]int{3, 4}, []bool{true, false})
		if err != nil {
			return err
		}
		coords := c.Coords()
		r, ok := c.Rank(coords)
		if !ok || r != p.Rank() {
			return fmt.Errorf("round trip: coords %v -> rank %d ok=%v, want %d", coords, r, ok, p.Rank())
		}
		// Row-major layout: rank = x*4 + y.
		if want := coords[0]*4 + coords[1]; want != p.Rank() {
			return fmt.Errorf("layout mismatch: coords %v for rank %d", coords, p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartValidation(t *testing.T) {
	_, err := Run(4, func(p *Proc) error {
		if _, err := p.NewCart([]int{3}, []bool{true}); err == nil {
			return fmt.Errorf("dims product mismatch accepted")
		}
		if _, err := p.NewCart([]int{4}, []bool{true, false}); err == nil {
			return fmt.Errorf("periodic length mismatch accepted")
		}
		if _, err := p.NewCart([]int{0, 0}, []bool{true, true}); err == nil {
			return fmt.Errorf("zero dims accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftPeriodic(t *testing.T) {
	_, err := Run(4, func(p *Proc) error {
		c, err := p.NewCart([]int{4}, []bool{true})
		if err != nil {
			return err
		}
		src, dst := c.Shift(0, 1)
		wantDst := (p.Rank() + 1) % 4
		wantSrc := (p.Rank() + 3) % 4
		if dst != wantDst || src != wantSrc {
			return fmt.Errorf("rank %d shift = (%d,%d), want (%d,%d)", p.Rank(), src, dst, wantSrc, wantDst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftNonPeriodicBoundary(t *testing.T) {
	_, err := Run(3, func(p *Proc) error {
		c, err := p.NewCart([]int{3}, []bool{false})
		if err != nil {
			return err
		}
		src, dst := c.Shift(0, 1)
		if p.Rank() == 2 && dst != ProcNull {
			return fmt.Errorf("last rank dst = %d, want ProcNull", dst)
		}
		if p.Rank() == 0 && src != ProcNull {
			return fmt.Errorf("first rank src = %d, want ProcNull", src)
		}
		if p.Rank() == 1 && (src != 0 || dst != 2) {
			return fmt.Errorf("middle rank shift = (%d,%d)", src, dst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartExchange2D(t *testing.T) {
	// 2D periodic halo exchange: every rank sends its rank id east and
	// receives its western neighbor's id, per dimension.
	_, err := Run(6, func(p *Proc) error {
		c, err := p.NewCart([]int{2, 3}, []bool{true, true})
		if err != nil {
			return err
		}
		for dim := 0; dim < 2; dim++ {
			got := make([]float64, 1)
			c.Exchange(dim, 1, []float64{float64(p.Rank())}, got)
			src, _ := c.Shift(dim, 1)
			if got[0] != float64(src) {
				return fmt.Errorf("rank %d dim %d: got %v, want %d", p.Rank(), dim, got, src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartExchangeNonPeriodicEdge(t *testing.T) {
	_, err := Run(2, func(p *Proc) error {
		c, err := p.NewCart([]int{2}, []bool{false})
		if err != nil {
			return err
		}
		got := []float64{-1}
		c.Exchange(0, 1, []float64{42}, got)
		switch p.Rank() {
		case 0:
			if got[0] != -1 {
				return fmt.Errorf("rank 0 should receive nothing, got %v", got)
			}
		case 1:
			if got[0] != 42 {
				return fmt.Errorf("rank 1 got %v, want [42]", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftInvalidDimPanics(t *testing.T) {
	_, err := Run(2, func(p *Proc) error {
		c, err := p.NewCart([]int{2}, []bool{true})
		if err != nil {
			return err
		}
		c.Shift(5, 1)
		return nil
	})
	if err == nil {
		t.Fatal("expected captured panic for invalid dimension")
	}
}

func TestPrimeFactors(t *testing.T) {
	cases := map[int][]int{
		1:  nil,
		2:  {2},
		12: {2, 2, 3},
		97: {97},
		60: {2, 2, 3, 5},
	}
	for n, want := range cases {
		got := primeFactors(n)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("primeFactors(%d) = %v, want %v", n, got, want)
		}
	}
}
