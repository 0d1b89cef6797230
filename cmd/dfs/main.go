// Command dfs runs the mini distributed file system over real TCP: a
// namenode, datanodes, and a small client for put/get/ls/rm. It exists to
// demonstrate that the checkpoint substrate is honestly distributed.
//
// Usage:
//
//	dfs namenode  -listen :9000 [-replication 3] [-heartbeat-max-age 30s] [-sweep-interval 10s]
//	              [-journal-dir /var/dfs/nn] [-fsimage-every 1000]
//	dfs datanode  -listen :9001 -namenode host:9000 -id dn-0 [-heartbeat 5s]
//	              [-scrub-interval 10m] [-block-report 1m]
//
// With -journal-dir, the namenode write-ahead-logs every namespace
// mutation and snapshots fsimages into that directory; a restarted
// namenode replays them to identical metadata, and datanode block reports
// re-populate the replica locations. -scrub-interval makes each datanode
// periodically re-verify all stored blocks against their checksums,
// evicting and reporting corrupt replicas for re-replication.
//
// Both daemons accept -metrics-addr: Prometheus text on /metrics, JSON on
// /metrics.json and net/http/pprof under /debug/pprof/, on one listener.
//
//	dfs put       -namenode host:9000 local-file /dfs/path
//	dfs get       -namenode host:9000 /dfs/path local-file
//	dfs ls        -namenode host:9000 [prefix]
//	dfs rm        -namenode host:9000 /dfs/path
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"preemptsched/internal/dfs"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
)

// closeOnSignal closes l when SIGINT/SIGTERM arrives, which makes
// dfs.Serve return nil — a clean shutdown whose deferred stops (metrics
// server, transports, heartbeat/scrub tickers) actually run, instead of
// the process dying with every listener and goroutine leaked.
// The returned stop function cancels the watcher on the normal path.
func closeOnSignal(l net.Listener) func() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sig:
			fmt.Printf("%v received, shutting down\n", s)
			l.Close()
		case <-done:
		}
		signal.Stop(sig)
	}()
	return func() { close(done) }
}

// serveObs starts a daemon's optional metrics endpoint, which serves
// net/http/pprof too, and returns a stop function that shuts it down.
func serveObs(metricsAddr string, reg *obs.Registry) (func(), error) {
	if metricsAddr == "" {
		return func() {}, nil
	}
	addr, stop, err := obs.ServeMetrics(metricsAddr, reg, "preemptsched")
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	fmt.Printf("metrics on http://%s/metrics, pprof on /debug/pprof/\n", addr)
	return stop, nil
}

// every runs fn each interval until stop is closed: the one loop behind
// the namenode's liveness sweep and a datanode's heartbeat, block report
// and scrub.
func every(stop <-chan struct{}, interval time.Duration, fn func()) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			fn()
		}
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dfs:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: dfs <namenode|datanode|put|get|ls|rm> [flags]")
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "namenode":
		return runNameNode(args)
	case "datanode":
		return runDataNode(args)
	case "put", "get", "ls", "rm":
		return runClient(cmd, args)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func runNameNode(args []string) error {
	fs := flag.NewFlagSet("namenode", flag.ExitOnError)
	listen := fs.String("listen", ":9000", "listen address")
	replication := fs.Int("replication", 3, "block replication factor")
	maxAge := fs.Duration("heartbeat-max-age", 30*time.Second, "declare a datanode dead after this silence (0 disables the sweep)")
	sweep := fs.Duration("sweep-interval", 10*time.Second, "how often to sweep dead datanodes")
	journalDir := fs.String("journal-dir", "", "directory for the write-ahead edit log and fsimage snapshots (empty = volatile namespace)")
	fsimageEvery := fs.Int("fsimage-every", 1000, "save an fsimage snapshot after this many journaled edits (0 = only at startup replay)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus text and JSON metrics, and net/http/pprof, on this HTTP address")
	fs.Parse(args)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	nn := dfs.NewNameNode(*replication)
	reg := obs.NewRegistry()
	nn.Instrument(reg)
	if *journalDir != "" {
		store, err := storage.NewFileStore(*journalDir)
		if err != nil {
			return fmt.Errorf("journal dir: %w", err)
		}
		replayed, err := nn.AttachJournal(store)
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		nn.SetCheckpointEvery(*fsimageEvery)
		fmt.Printf("journal attached at %s (%d edits replayed)\n", *journalDir, replayed)
	}
	stopObs, err := serveObs(*metricsAddr, reg)
	if err != nil {
		return err
	}
	defer stopObs()
	// Self-healing after bad-replica reports and the liveness sweep's
	// re-replication both copy blocks over this transport.
	transport := dfs.NewTCPTransport(l.Addr().String())
	defer transport.Close()
	nn.AttachTransport(transport)
	if *maxAge > 0 && *sweep > 0 {
		// The liveness sweep decommissions silent datanodes.
		stop := make(chan struct{})
		defer close(stop)
		go every(stop, *sweep, func() { nn.SweepDead(*maxAge) })
	}
	stopWatch := closeOnSignal(l)
	defer stopWatch()
	fmt.Printf("namenode listening on %s (replication %d)\n", l.Addr(), *replication)
	return dfs.Serve(l, nn, nil)
}

func runDataNode(args []string) error {
	fs := flag.NewFlagSet("datanode", flag.ExitOnError)
	listen := fs.String("listen", ":9001", "listen address")
	namenode := fs.String("namenode", "127.0.0.1:9000", "namenode address")
	id := fs.String("id", "", "unique datanode id (required)")
	advertise := fs.String("advertise", "", "address to advertise to peers (defaults to -listen)")
	heartbeat := fs.Duration("heartbeat", 5*time.Second, "heartbeat interval (0 disables)")
	scrubEvery := fs.Duration("scrub-interval", 10*time.Minute, "re-verify all stored blocks against their checksums this often (0 disables)")
	blockReport := fs.Duration("block-report", time.Minute, "send a full block report this often (0 disables; one is always sent at startup)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus text and JSON metrics, and net/http/pprof, on this HTTP address")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("datanode requires -id")
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	addr := *advertise
	if addr == "" {
		addr = l.Addr().String()
	}
	transport := dfs.NewTCPTransport(*namenode)
	defer transport.Close()
	info := dfs.DataNodeInfo{ID: *id, Addr: addr}
	nn, err := transport.NameNode()
	if err != nil {
		return err
	}
	if err := nn.Register(info); err != nil {
		return fmt.Errorf("register with namenode: %w", err)
	}
	stop := make(chan struct{})
	defer close(stop)
	if *heartbeat > 0 {
		// Best effort; a rejoin after namenode restart works because
		// Heartbeat re-registers unknown nodes.
		go every(stop, *heartbeat, func() { _ = nn.Heartbeat(info) })
	}
	dn := dfs.NewDataNode(info, transport)
	reg := obs.NewRegistry()
	dn.Instrument(reg)
	stopObs, err := serveObs(*metricsAddr, reg)
	if err != nil {
		return err
	}
	defer stopObs()
	// The startup block report lets a journal-recovered namenode relearn
	// where this node's replicas live; periodic reports reconcile drift and
	// garbage-collect replicas the namespace no longer references.
	sendBlockReport := func() {
		stale, err := nn.BlockReport(info, dn.BlockIDs())
		if err != nil {
			return
		}
		for _, id := range stale {
			_ = dn.DeleteBlock(id)
		}
	}
	sendBlockReport()
	if *blockReport > 0 {
		go every(stop, *blockReport, sendBlockReport)
	}
	if *scrubEvery > 0 {
		go every(stop, *scrubEvery, func() { dn.ScrubOnce(nn) })
	}
	stopWatch := closeOnSignal(l)
	defer stopWatch()
	fmt.Printf("datanode %s listening on %s, registered at %s\n", *id, l.Addr(), *namenode)
	return dfs.Serve(l, nil, dn)
}

func runClient(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	namenode := fs.String("namenode", "127.0.0.1:9000", "namenode address")
	fs.Parse(args)
	rest := fs.Args()

	transport := dfs.NewTCPTransport(*namenode)
	defer transport.Close()
	client := dfs.NewClient(transport)

	switch cmd {
	case "put":
		if len(rest) != 2 {
			return fmt.Errorf("usage: dfs put -namenode addr local-file /dfs/path")
		}
		src, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		defer src.Close()
		dst, err := client.Create(rest[1])
		if err != nil {
			return err
		}
		n, err := io.Copy(dst, src)
		if err != nil {
			dst.Close() // abandon the half-written pipeline, don't leak it
			return err
		}
		if err := dst.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s\n", n, rest[1])
	case "get":
		if len(rest) != 2 {
			return fmt.Errorf("usage: dfs get -namenode addr /dfs/path local-file")
		}
		src, err := client.Open(rest[0])
		if err != nil {
			return err
		}
		defer src.Close()
		dst, err := os.Create(rest[1])
		if err != nil {
			return err
		}
		n, err := io.Copy(dst, src)
		if err != nil {
			dst.Close()
			return err
		}
		if err := dst.Close(); err != nil {
			return err
		}
		fmt.Printf("read %d bytes from %s\n", n, rest[0])
	case "ls":
		prefix := ""
		if len(rest) > 0 {
			prefix = rest[0]
		}
		names, err := client.List(prefix)
		if err != nil {
			return err
		}
		for _, name := range names {
			size, err := client.Size(name)
			if err != nil {
				return err
			}
			fmt.Printf("%10d  %s\n", size, name)
		}
	case "rm":
		if len(rest) != 1 {
			return fmt.Errorf("usage: dfs rm -namenode addr /dfs/path")
		}
		if err := client.Remove(rest[0]); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", rest[0])
	}
	return nil
}
