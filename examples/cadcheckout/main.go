// cadcheckout models the paper's motivating CAD/CAM scenario (the PRIVATE
// workload of Section 5.5): each engineer works on a private partition of
// the design database while sharing a read-only component library. With
// intertransaction caching and adaptive page-level locking (PS-AA), steady
// state needs almost no server interaction: every engineer's partition
// stays cached and write locks come back page-granular.
//
// The program runs a fleet of engineer goroutines against one in-process
// server and reports per-engineer progress plus the server's protocol
// statistics — note the near-zero callback count (no data contention) and
// the dominance of page-level grants (adaptive locking at work).
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sync"

	"repro"
)

const (
	engineers      = 4
	partPages      = 16 // private partition size per engineer, in pages
	libraryPages   = 32 // shared read-only component library
	sessionsEach   = 30 // design sessions (transactions) per engineer
	editsPerSess   = 6  // object edits per session
	lookupsPerSess = 4  // library lookups per session
)

func main() {
	dir, err := os.MkdirTemp("", "oodb-cad")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	numPages := engineers*partPages + libraryPages
	cluster, err := repro.NewCluster(dir, repro.ClusterOptions{
		Clients: engineers,
		ServerOptions: repro.ServerOptions{
			Proto:    repro.PSAA,
			NumPages: numPages, ObjsPerPage: 16, PageSize: 1024,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Seed the shared component library (pages after the partitions).
	seed := cluster.Client(0)
	tx, _ := seed.Begin()
	for p := 0; p < libraryPages; p++ {
		page := repro.PageID(engineers*partPages + p)
		if err := tx.Write(repro.Obj(page, 0), []byte(fmt.Sprintf("component-%d", p))); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library seeded: %d components\n", libraryPages)

	var wg sync.WaitGroup
	for e := 0; e < engineers; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			engineer(cluster.Client(e), e)
		}(e)
	}
	wg.Wait()

	st := cluster.Server().Stats()
	fmt.Printf("\nserver stats after %d sessions x %d engineers:\n", sessionsEach, engineers)
	fmt.Printf("  read requests  %6d\n", st.ReadReqs)
	fmt.Printf("  write requests %6d\n", st.WriteReqs)
	fmt.Printf("  commits        %6d\n", st.Commits)
	fmt.Printf("  page grants    %6d   <- adaptive locking stays page-level\n", st.PageGrants)
	fmt.Printf("  object grants  %6d\n", st.ObjGrants)
	fmt.Printf("  callbacks      %6d   <- no data contention in PRIVATE work\n", st.Callbacks)
	fmt.Printf("  deadlocks      %6d\n", st.Deadlocks)
}

// engineer runs design sessions against its private partition.
func engineer(cl *repro.Client, e int) {
	base := repro.PageID(e * partPages)
	rng := uint32(2654435761 * uint32(e+1))
	next := func(n int) int {
		rng = rng*1664525 + 1013904223
		return int(rng>>8) % n
	}
	for s := 0; s < sessionsEach; s++ {
		for {
			tx, err := cl.Begin()
			if err != nil {
				log.Fatal(err)
			}
			err = session(tx, base, next)
			if err == nil {
				err = tx.Commit()
			}
			if err == nil {
				break
			}
			if !errors.Is(err, repro.ErrAborted) {
				log.Fatal(err)
			}
			// Deadlock victim (cannot happen in PRIVATE work, but the
			// retry loop is how real applications are written).
		}
	}
	fmt.Printf("engineer %d finished %d sessions\n", e, sessionsEach)
}

func session(tx *repro.Txn, base repro.PageID, next func(int) int) error {
	// Consult the shared library (read-only).
	for i := 0; i < lookupsPerSess; i++ {
		page := repro.PageID(engineers*partPages + next(libraryPages))
		if _, err := tx.Read(repro.Obj(page, 0)); err != nil {
			return err
		}
	}
	// Edit private design objects.
	for i := 0; i < editsPerSess; i++ {
		obj := repro.Obj(base+repro.PageID(next(partPages)), uint16(next(16)))
		if err := tx.Update(obj, func(old []byte) []byte {
			return []byte(fmt.Sprintf("rev+%d", len(old)%97))
		}); err != nil {
			return err
		}
	}
	return nil
}
