// collabedit demonstrates false sharing — the scenario the paper's hybrid
// protocols exist for. Two writers continuously update DIFFERENT objects
// that happen to live on the SAME page (think two users editing different
// paragraphs of one document). The demo runs the identical workload under
// the basic page server (PS) and the adaptive page server (PS-AA) and
// prints the servers' protocol statistics side by side:
//
//   - under PS every update needs the whole page's write lock, so the two
//     writers collide constantly (blocks, callbacks bouncing the page,
//     deadlock aborts);
//   - under PS-AA the server de-escalates to object locks on that page and
//     the writers proceed in parallel.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"text/tabwriter"

	"repro"
	"repro/internal/core"
)

const (
	editsPerWriter = 120
	sharedPage     = repro.PageID(7)
)

func main() {
	psStats, psAborts := run(repro.PS)
	aaStats, aaAborts := run(repro.PSAA)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "metric\tPS\tPS-AA\n")
	fmt.Fprintf(w, "write requests\t%d\t%d\n", psStats.WriteReqs, aaStats.WriteReqs)
	fmt.Fprintf(w, "callbacks\t%d\t%d\n", psStats.Callbacks, aaStats.Callbacks)
	fmt.Fprintf(w, "busy replies\t%d\t%d\n", psStats.BusyReplies, aaStats.BusyReplies)
	fmt.Fprintf(w, "blocks\t%d\t%d\n", psStats.Blocks, aaStats.Blocks)
	fmt.Fprintf(w, "deadlocks\t%d\t%d\n", psStats.Deadlocks, aaStats.Deadlocks)
	fmt.Fprintf(w, "client aborts\t%d\t%d\n", psAborts, aaAborts)
	fmt.Fprintf(w, "page grants\t%d\t%d\n", psStats.PageGrants, aaStats.PageGrants)
	fmt.Fprintf(w, "object grants\t%d\t%d\n", psStats.ObjGrants, aaStats.ObjGrants)
	w.Flush()
	fmt.Println("\nPS-AA de-escalates the contended page to object locks; PS bounces it.")
}

// run executes the two-writer false-sharing workload under one protocol
// and returns the server stats and total client-side abort retries.
func run(proto repro.Protocol) (core.ServerStats, int64) {
	dir, err := os.MkdirTemp("", "oodb-collab")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cluster, err := repro.NewCluster(dir, repro.ClusterOptions{Clients: 2, ServerOptions: repro.ServerOptions{
		Proto: proto, NumPages: 16, ObjsPerPage: 8, PageSize: 512,
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	var aborts int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := cluster.Client(i)
			slot := uint16(i) // each writer owns a distinct object on the shared page
			myAborts := int64(0)
			for n := 0; n < editsPerWriter; {
				tx, err := cl.Begin()
				if err != nil {
					log.Fatal(err)
				}
				err = tx.Update(repro.Obj(sharedPage, slot), func(old []byte) []byte {
					return []byte{old[0] + 1}
				})
				// Keep the transaction open across scheduler yields so the
				// two writers genuinely overlap (the whole point of the
				// demo: concurrent transactions touching one page).
				for y := 0; y < 4 && err == nil; y++ {
					runtime.Gosched()
				}
				if err == nil {
					err = tx.Commit()
				}
				switch {
				case err == nil:
					n++
				case errors.Is(err, repro.ErrAborted):
					myAborts++
				default:
					log.Fatal(err)
				}
			}
			mu.Lock()
			aborts += myAborts
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	// Verify no update was lost.
	check := cluster.Client(0)
	tx, _ := check.Begin()
	for slot := uint16(0); slot < 2; slot++ {
		v, err := tx.Read(repro.Obj(sharedPage, slot))
		if err != nil {
			log.Fatal(err)
		}
		if int(v[0]) != editsPerWriter {
			log.Fatalf("%v: lost updates under %v: counter=%d want %d", repro.Obj(sharedPage, slot), proto, v[0], editsPerWriter)
		}
	}
	tx.Commit()
	fmt.Printf("%-6v: both counters reached %d (serializable)\n", proto, editsPerWriter)
	return cluster.Server().Stats(), aborts
}
