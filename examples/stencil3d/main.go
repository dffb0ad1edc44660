// Stencil3d reproduces the paper's Example 8: a 3-D stencil whose optimal
// rectangular tiles have extents in the ratio 2:3:4, then generates the Go
// kernel for the chosen tile.
//
// Run:
//
//	go run ./examples/stencil3d
package main

import (
	"context"
	"fmt"
	"log"

	"looppart"
	"looppart/internal/codegen"
)

func main() {
	src := `
doall (i, 1, N)
  doall (j, 1, N)
    doall (k, 1, N)
      A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]
    enddoall
  enddoall
enddoall`

	prog, err := looppart.Parse(src, map[string]int64{"N": 48})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(prog.Report())

	// Compare partition shapes for 16 processors on the simulator.
	fmt.Println("\nshape comparison (P=16):")
	for _, s := range []looppart.Strategy{looppart.Rows, looppart.Blocks, looppart.Rect} {
		plan, err := prog.Partition(context.Background(), 16, s)
		if err != nil {
			log.Fatal(err)
		}
		m, err := plan.Simulate(looppart.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s %-16v misses/proc=%.0f shared=%d\n",
			s, plan.Tile, m.MissesPerProc(), m.SharedData)
	}

	// Execute the optimal plan for real on goroutines.
	plan, err := prog.Partition(context.Background(), 16, looppart.Rect)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := plan.Execute(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nparallel execution over goroutines: ok")

	// Emit the tile kernel a compiler back end would produce.
	layouts := map[string]codegen.ArrayLayout{
		"A": {Name: "A", Lo: []int64{0, 0, 0}, Size: []int64{64, 64, 64}},
		"B": {Name: "B", Lo: []int64{-8, -8, -8}, Size: []int64{64, 64, 64}},
	}
	p, err := codegen.Generate(prog.Nest, layouts, codegen.Options{FuncName: "Stencil3D"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngenerated kernel:")
	fmt.Print(p.Source)
}
