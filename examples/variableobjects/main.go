// variableobjects demonstrates the paper's Section 6.1 extension:
// size-changing updates. The server stores objects in slotted pages,
// compacts in place as they grow and shrink, and forwards objects that
// outgrow their home page to an overflow region — transparently to the
// application, which just writes values of whatever size it likes.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "oodb-variable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Variable-size objects require the OS protocol (objects ship by
	// value; page images stay server-internal).
	cluster, err := repro.NewCluster(dir, repro.ClusterOptions{Clients: 2, ServerOptions: repro.ServerOptions{
		Proto:    repro.OS,
		NumPages: 64, ObjsPerPage: 8, PageSize: 1024,
		VariableObjects: true,
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	alice, bob := cluster.Client(0), cluster.Client(1)
	doc := repro.Obj(5, 0)
	fmt.Printf("max object size: %d bytes\n\n", alice.ObjSize())

	// A document that grows with every revision.
	revisions := []string{
		"v1",
		"v2: " + strings.Repeat("expanded content ", 8),
		"v3: " + strings.Repeat("a much longer body of text ", 20),
		"v4: back to a short abstract",
	}
	for i, text := range revisions {
		tx, err := alice.Begin()
		if err != nil {
			log.Fatal(err)
		}
		if err := tx.Write(doc, []byte(text)); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}

		// Bob reads the exact value back — no padding, no truncation.
		btx, _ := bob.Begin()
		got, err := btx.Read(doc)
		if err != nil {
			log.Fatal(err)
		}
		// got is a view into Bob's cache: use it before the commit.
		fmt.Printf("revision %d: wrote %4d bytes, bob read %4d bytes (match=%v)\n",
			i+1, len(text), len(got), string(got) == text)
		btx.Commit()
	}

	// Fill the neighbours too, so the page has to juggle space.
	tx, _ := alice.Begin()
	for slot := uint16(1); slot < 8; slot++ {
		if err := tx.Write(repro.Obj(5, slot), []byte(strings.Repeat("n", 100+int(slot)*10))); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	check, _ := bob.Begin()
	total := 0
	for slot := uint16(0); slot < 8; slot++ {
		v, err := check.Read(repro.Obj(5, slot))
		if err != nil {
			log.Fatal(err)
		}
		total += len(v)
	}
	check.Commit()
	fmt.Printf("\npage 5 now holds %d bytes across 8 objects — more than one\n", total)
	fmt.Println("fixed-slot page could carry; overflow forwarding did the rest.")
}
