// Matmul reproduces Figure 11 / Appendix A: matrix multiply written with
// fine-grain synchronizing accumulates (l$C[i,j]), partitioned for cache
// locality, executed on goroutines, and verified against a sequential run.
//
// Run:
//
//	go run ./examples/matmul
package main

import (
	"context"
	"fmt"
	"log"

	"looppart"
	"looppart/internal/exec"
)

const n = 24

func main() {
	src := `
doall (i, 1, N)
  doall (j, 1, N)
    doall (k, 1, N)
      l$C[i,j] = C[i,j] + A[i,k] * B[k,j]
    enddoall
  enddoall
enddoall`

	prog, err := looppart.Parse(src, map[string]int64{"N": n})
	if err != nil {
		log.Fatal(err)
	}

	// The C accumulate is a synchronizing reference: the coherence
	// system treats it as a write (Appendix A), which the analysis and
	// simulator account for.
	fmt.Print(prog.Report())

	fmt.Println("\ntile shapes for P=8 (simulated, atomic refs cost extra):")
	for _, s := range []looppart.Strategy{looppart.Rows, looppart.Rect} {
		plan, err := prog.Partition(context.Background(), 8, s)
		if err != nil {
			log.Fatal(err)
		}
		m, err := plan.Simulate(looppart.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5s %-18v misses=%d cost=%.0f\n", s, plan.Tile, m.Misses(), m.Cost)
	}

	// Execute in parallel and verify against the sequential semantics.
	plan, err := prog.Partition(context.Background(), 8, looppart.Rect)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := exec.StoreFor(prog.Nest)
	if err != nil {
		log.Fatal(err)
	}
	for name, arr := range seq {
		switch name {
		case "C":
			arr.Fill(func([]int64) float64 { return 0 })
		default:
			arr.Fill(func(idx []int64) float64 {
				return float64(idx[0]*31+idx[1]) * 0.125
			})
		}
	}
	par := exec.Store{}
	for name, arr := range seq {
		par[name] = arr.Clone()
	}
	exec.RunSequential(prog.Nest, seq)
	if err := plan.ExecuteOn(par); err != nil {
		log.Fatal(err)
	}
	if !seq["C"].EqualWithin(par["C"], 1e-9) {
		log.Fatal("parallel result differs from sequential")
	}
	fmt.Printf("\nparallel C == sequential C for %dx%d matmul: ok\n", n, n)
	fmt.Printf("C[3,5] = %.3f\n", par["C"].At([]int64{3, 5}))
}
