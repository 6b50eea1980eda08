// Command oodbsh is an interactive shell for a live OODBMS: connect to a
// TCP server (or open an in-process one) and run transactions by hand.
//
//	oodbsh -addr 127.0.0.1:7090            # remote server
//	oodbsh -dir ./mydb -proto PS-AA        # embedded server
//
// Commands:
//
//	begin                 start a transaction
//	get <page>.<slot>     read an object (implicit begin)
//	put <page>.<slot> <text>   write an object (implicit begin)
//	commit | abort        end the transaction
//	stats                 server protocol counters (embedded mode only)
//	help | quit
//
// Reads and writes inside one begin/commit block are one serializable
// transaction; deadlock victims are reported and must be retried.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "oodbsh:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("oodbsh", flag.ContinueOnError)
	addr := fs.String("addr", "", "TCP address of a running server (empty: embedded server)")
	dir := fs.String("dir", "oodbsh-data", "database directory of the embedded server")
	proto := fs.String("proto", "PS-AA", "protocol of the embedded server")
	pages := fs.Int("pages", 256, "page count of the embedded server")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	var client *repro.Client
	var statsFn func() core.ServerStats
	var metrics *repro.MetricsRegistry
	if *addr != "" {
		c, err := repro.Dial(*addr)
		if err != nil {
			return err
		}
		client = c
		fmt.Printf("connected to %s (protocol %v)\n", *addr, c.Proto())
	} else {
		p, ok := core.ParseProtocol(*proto)
		if !ok {
			return fmt.Errorf("unknown protocol %q", *proto)
		}
		metrics = repro.NewMetricsRegistry()
		cluster, err := repro.NewCluster(*dir, repro.ClusterOptions{Clients: 1, ServerOptions: repro.ServerOptions{
			Proto: p, NumPages: *pages, Metrics: metrics,
		}})
		if err != nil {
			return err
		}
		defer cluster.Close()
		client = cluster.Client(0)
		statsFn = cluster.Server().Stats
		np, opp := client.Geometry()
		fmt.Printf("opened %s: %v, %d pages x %d objects (%d B each)\n",
			*dir, p, np, opp, client.ObjSize())
	}
	defer client.Close()
	return repl(os.Stdin, os.Stdout, client, statsFn, metrics)
}

// repl runs the command loop; split out for testing.
func repl(in *os.File, out *os.File, client *repro.Client, statsFn func() core.ServerStats, metrics *repro.MetricsRegistry) error {
	var tx *repro.Txn
	ensureTx := func() (*repro.Txn, error) {
		if tx != nil {
			return tx, nil
		}
		t, err := client.Begin()
		if err != nil {
			return nil, err
		}
		tx = t
		fmt.Fprintln(out, "(transaction started)")
		return tx, nil
	}
	endTx := func() { tx = nil }

	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "> ")
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			if tx != nil {
				tx.Abort()
			}
			return nil
		case "help":
			fmt.Fprintln(out, "begin | get p.s | put p.s text | commit | abort | stats | quit")
		case "begin":
			if _, err := ensureTx(); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "get":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: get <page>.<slot>")
				break
			}
			obj, err := parseObj(fields[1])
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			t, err := ensureTx()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			v, err := t.Read(obj)
			if errors.Is(err, repro.ErrAborted) {
				fmt.Fprintln(out, "deadlock victim: transaction aborted, retry")
				endTx()
				break
			}
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "%v = %q\n", obj, strings.TrimRight(string(v), "\x00"))
		case "put":
			if len(fields) < 3 {
				fmt.Fprintln(out, "usage: put <page>.<slot> <text>")
				break
			}
			obj, err := parseObj(fields[1])
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			t, err := ensureTx()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			val := strings.Join(fields[2:], " ")
			err = t.Write(obj, []byte(val))
			if errors.Is(err, repro.ErrAborted) {
				fmt.Fprintln(out, "deadlock victim: transaction aborted, retry")
				endTx()
				break
			}
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "%v <- %q (uncommitted)\n", obj, val)
		case "commit":
			if tx == nil {
				fmt.Fprintln(out, "no transaction")
				break
			}
			err := tx.Commit()
			endTx()
			if err != nil {
				fmt.Fprintln(out, "commit failed:", err)
			} else {
				fmt.Fprintln(out, "committed")
			}
		case "abort":
			if tx == nil {
				fmt.Fprintln(out, "no transaction")
				break
			}
			tx.Abort()
			endTx()
			fmt.Fprintln(out, "aborted")
		case "stats":
			if statsFn == nil {
				fmt.Fprintln(out, "stats only available in embedded mode")
				break
			}
			st := statsFn()
			fmt.Fprintf(out, "reads=%d writes=%d commits=%d aborts=%d callbacks=%d busy=%d deesc=%d pageX=%d objX=%d deadlocks=%d\n",
				st.ReadReqs, st.WriteReqs, st.Commits, st.Aborts, st.Callbacks,
				st.BusyReplies, st.Deescalations, st.PageGrants, st.ObjGrants, st.Deadlocks)
			if metrics != nil {
				fmt.Fprintln(out, "--- metrics ---")
				metrics.WriteHuman(out)
			}
		default:
			fmt.Fprintf(out, "unknown command %q (try help)\n", fields[0])
		}
		fmt.Fprint(out, "> ")
	}
	return sc.Err()
}

func parseObj(s string) (repro.ObjID, error) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return repro.ObjID{}, fmt.Errorf("want <page>.<slot>, got %q", s)
	}
	p, err := strconv.Atoi(s[:dot])
	if err != nil {
		return repro.ObjID{}, err
	}
	sl, err := strconv.Atoi(s[dot+1:])
	if err != nil {
		return repro.ObjID{}, err
	}
	return repro.Obj(repro.PageID(p), uint16(sl)), nil
}
