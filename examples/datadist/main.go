// Datadist demonstrates data partitioning and alignment (§4, footnote 2):
// on a distributed-memory mesh, arrays partitioned with the loop tiles'
// aspect ratios and aligned to their tiles serve most cache misses from
// local memory; hashed placement sends them across the network.
//
// Run:
//
//	go run ./examples/datadist
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
    A[i,j] = B[i-1,j] + B[i+1,j] + B[i,j-1] + B[i,j+1]
  enddoall
enddoall`

	prog, err := looppart.Parse(src, map[string]int64{"N": 64})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := prog.Partition(context.Background(), 16, looppart.Rect)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", plan)
	fmt.Println("\nmesh simulation, 16 nodes (4x4), per-hop cost model:")

	for _, aligned := range []bool{false, true} {
		m, err := plan.SimulateMesh(looppart.MeshOptions{Aligned: aligned})
		if err != nil {
			log.Fatal(err)
		}
		name := "hashed placement "
		if aligned {
			name = "aligned placement"
		}
		local := float64(m.LocalMisses) / float64(m.LocalMisses+m.RemoteMisses)
		fmt.Printf("  %s  local=%5.1f%%  hops=%6d  mean access cost=%.2f\n",
			name, 100*local, m.HopTraffic, m.Cost/float64(m.Accesses))
	}

	fmt.Println("\nalignment keeps each tile's footprint in its own memory module;")
	fmt.Println("only the tile-boundary halo goes remote.")
}
