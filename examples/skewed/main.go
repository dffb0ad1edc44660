// Skewed reproduces the paper's Example 3: a loop where every rectangular
// partition pays communication that a parallelogram (skewed) partition
// internalizes — and where a hyperplane partition along (−3,1) is in fact
// communication-free.
//
// Run:
//
//	go run ./examples/skewed
package main

import (
	"context"
	"fmt"
	"log"

	"looppart"
)

func main() {
	src := `
doall (i, 1, N)
  doall (j, 1, N)
    A[i,j] = B[i,j] + B[i+1,j+3]
  enddoall
enddoall`

	prog, err := looppart.Parse(src, map[string]int64{"N": 36})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(prog.Report())
	fmt.Println()

	for _, s := range []looppart.Strategy{looppart.Rect, looppart.Skewed, looppart.CommFree} {
		plan, err := prog.Partition(context.Background(), 12, s)
		if err != nil {
			log.Fatal(err)
		}
		m, err := plan.Simulate(looppart.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		shape := "slabs along " + fmt.Sprint(plan.Slab)
		if plan.Tile != nil {
			shape = plan.Tile.String()
		}
		fmt.Printf("%-9s %-28s misses/proc=%.1f shared=%d\n",
			s, shape, m.MissesPerProc(), m.SharedData)
	}

	fmt.Println("\nthe B reuse direction is (1,3): rectangular tiles cut it;")
	fmt.Println("tiles (or slabs) aligned with it internalize the reuse entirely.")
}
