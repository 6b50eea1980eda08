// Quickstart: open an in-process cluster, run transactions from two
// clients, and demonstrate fine-grained sharing — two clients updating
// different objects on the SAME page concurrently under PS-AA, which a
// classic page server would serialize.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "oodb-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cluster, err := repro.NewCluster(dir, repro.ClusterOptions{
		Clients: 2,
		ServerOptions: repro.ServerOptions{
			Proto: repro.PSAA,
			// A small database is plenty for a demo.
			NumPages: 64, ObjsPerPage: 8, PageSize: 512,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	alice, bob := cluster.Client(0), cluster.Client(1)

	// Alice writes a greeting and commits.
	tx, err := alice.Begin()
	if err != nil {
		log.Fatal(err)
	}
	must(tx.Write(repro.Obj(3, 0), []byte("hello from alice")))
	must(tx.Commit())
	fmt.Println("alice committed object 3.0")

	// Bob reads it: the page ships to Bob's cache.
	btx, _ := bob.Begin()
	v, err := btx.Read(repro.Obj(3, 0))
	must(err)
	fmt.Printf("bob read object 3.0: %q\n", trim(v))

	// Fine-grained sharing: while Bob's transaction is still reading page
	// 3, Alice updates a DIFFERENT object on the same page. Under PS-AA
	// the server de-escalates to object-level locking, so Alice does not
	// block on Bob.
	atx, _ := alice.Begin()
	must(atx.Write(repro.Obj(3, 5), []byte("same page, no conflict")))
	must(atx.Commit())
	fmt.Println("alice committed object 3.5 while bob held page 3")

	// Bob keeps working and commits.
	v2, err := btx.Read(repro.Obj(3, 1))
	must(err)
	_ = v2
	must(btx.Commit())

	// A write-write conflict on the SAME object blocks (and may deadlock,
	// returning repro.ErrAborted — retry in that case).
	for {
		tx, _ := alice.Begin()
		err := tx.Update(repro.Obj(3, 5), func(old []byte) []byte {
			return append(trim(old), '!')
		})
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			break
		}
		if !errors.Is(err, repro.ErrAborted) {
			log.Fatal(err)
		}
	}

	check, _ := bob.Begin()
	v3, _ := check.Read(repro.Obj(3, 5))
	// Read returns a view into Bob's cache, valid until his transaction
	// ends: print it first.
	fmt.Printf("final object 3.5: %q\n", trim(v3))
	check.Commit()

	st := cluster.Server().Stats()
	fmt.Printf("server stats: reads=%d writes=%d commits=%d callbacks=%d pageGrants=%d objGrants=%d deescalations=%d\n",
		st.ReadReqs, st.WriteReqs, st.Commits, st.Callbacks, st.PageGrants, st.ObjGrants, st.Deescalations)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// trim strips the zero padding of a fixed-size object slot.
func trim(b []byte) []byte {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return b[:end]
}
