// mmmlocality reproduces §II-D of the paper: automatic modeling of memory
// locality scalability. It traces the naïve (Listing 1) and blocked
// (Listing 2) matrix multiplications through the stack-distance engine,
// fits scaling models to the per-instruction-group medians, and reaches the
// paper's conclusion — the naïve kernel's locality degrades with the matrix
// size while the blocked kernel is locality-preserving — without any
// knowledge of the hardware.
package main

import (
	"fmt"
	"log"

	"extrareq/internal/locality"
	"extrareq/internal/modeling"
)

func main() {
	sizes := []int{8, 12, 16, 24, 32, 48}
	const block = 4

	fmt.Println("Figure 1 warm-up: access sequence a b c b c a")
	an := locality.NewAnalyzer()
	for _, addr := range []uint64{1, 2, 3, 2, 3, 1} {
		if d, ok := an.Observe(addr, "fig1"); ok {
			fmt.Printf("  revisit addr %d: reuse distance %d, stack distance %d\n", addr, d.Reuse, d.Stack)
		}
	}

	fmt.Println("\nTracing naive and blocked MMM kernels...")
	var naiveA, naiveB, blockedA, blockedB []modeling.Measurement
	for _, n := range sizes {
		naive, blocked := locality.MMMStudy(n, block)
		naiveA = append(naiveA, sample(n, median(naive, locality.GroupA)))
		naiveB = append(naiveB, sample(n, median(naive, locality.GroupB)))
		blockedA = append(blockedA, sample(n, median(blocked, locality.GroupA)))
		blockedB = append(blockedB, sample(n, median(blocked, locality.GroupB)))
		fmt.Printf("  n=%3d  naive: SD(A)=%-5.0f SD(B)=%-6.0f   blocked: SD(A)=%-3.0f SD(B)=%-3.0f\n",
			n,
			median(naive, locality.GroupA), median(naive, locality.GroupB),
			median(blocked, locality.GroupA), median(blocked, locality.GroupB))
	}

	fmt.Println("\nFitted stack-distance models (the paper's automatic analysis):")
	fit("naive   A", naiveA)
	fit("naive   B", naiveB)
	fit("blocked A", blockedA)
	fit("blocked B", blockedB)
	fmt.Println("\nConclusion (§II-D): the naive kernel's stack distances grow with n —")
	fmt.Println("every matrix size increase raises the pressure on the memory subsystem —")
	fmt.Println("while the blocked kernel's locality is independent of n. Since both")
	fmt.Println("kernels execute the same flops and accesses, the blocked one is preferable.")
}

func fit(name string, ms []modeling.Measurement) {
	opts := modeling.DefaultOptions()
	opts.MinPoints = 5
	info, err := modeling.FitMulti([]string{"n"}, ms, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s: SD ~ %s\n", name, info.Model)
}

func sample(n int, v float64) modeling.Measurement {
	return modeling.Measurement{Coords: []float64{float64(n)}, Values: []float64{v}}
}

func median(groups []locality.GroupStats, name string) float64 {
	for _, g := range groups {
		if g.Group == name {
			return g.MedianStack
		}
	}
	return 0
}
