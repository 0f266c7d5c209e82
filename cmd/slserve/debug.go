package main

// The -debug-addr listener of either tier: the tier's /metrics and the Go
// profiles, off the public port. It runs on the data listeners' own
// HTTP/1.1 server (wire.go), so it refuses request bodies as they do, and
// it serves the endpoints of net/http/pprof that take none:
//
//	/debug/pprof/                 the index of the named profiles
//	/debug/pprof/cmdline          the command line, NUL-separated
//	/debug/pprof/profile          a CPU profile over ?seconds=N (default 30)
//	/debug/pprof/trace            an execution trace over ?seconds=N (default 1)
//	/debug/pprof/NAME             a named profile (heap, goroutine, ...),
//	                              ?debug=N for text
//
// /debug/pprof/symbol, which reads addresses from a POST body, is not
// served: the profiles carry their symbols. A named profile has no
// ?seconds delta form either.

import (
	"fmt"
	"net"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"stronglin/internal/obs"
)

// startDebug serves debugServe(reg) on -debug-addr and returns its server
// for the drain, or nil when the flag is empty or its address cannot be
// bound (the tier serves on without it).
func startDebug(reg *obs.Registry) *wireServer {
	if *debugAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slserve: debug listener:", err)
		return nil
	}
	ws := newWireServer(debugServe(reg), nil, nil, nil, nil)
	go func() {
		if err := ws.serve(ln); err != errServerClosed {
			fmt.Fprintln(os.Stderr, "slserve: debug listener:", err)
		}
	}()
	fmt.Printf("slserve: debug listener (metrics + pprof) on %s\n", ln.Addr())
	return ws
}

// debugServe is the debug listener's handler over reg's /metrics.
func debugServe(reg *obs.Registry) func(*respWriter, *request) {
	return func(w *respWriter, r *request) {
		name, ok := strings.CutPrefix(r.path, "/debug/pprof/")
		switch {
		case r.path == "/metrics":
			writeMetrics(w, reg)
		case !ok:
			notFound(w)
		case name == "":
			pprofIndex(w)
		case name == "cmdline":
			w.ctype = "text/plain; charset=utf-8"
			w.body = append(w.body, strings.Join(os.Args, "\x00")...)
		case name == "profile":
			pprofCPU(w, r)
		case name == "trace":
			pprofTrace(w, r)
		default:
			pprofNamed(w, r, name)
		}
	}
}

// pprofIndex lists the named profiles with their current counts.
func pprofIndex(w *respWriter) {
	w.ctype = "text/plain; charset=utf-8"
	fmt.Fprintf(w, "/debug/pprof/: profile, trace and cmdline, and these named profiles (?debug=1 for text):\n\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(w, "%8d %s\n", p.Count(), p.Name())
	}
}

// pprofNamed writes the named profile: gzipped protobuf, or text with
// ?debug=N for N > 0.
func pprofNamed(w *respWriter, r *request, name string) {
	p := pprof.Lookup(name)
	if p == nil {
		writeErr(w, statusNotFound, "unknown profile", false, 0)
		return
	}
	debug, _ := strconv.Atoi(r.query.Get("debug"))
	if debug != 0 {
		w.ctype = "text/plain; charset=utf-8"
	} else {
		attachment(w, name)
	}
	p.WriteTo(w, debug) // writes into w's buffer, which cannot fail
}

// pprofCPU profiles the CPU for ?seconds=N, or until the listener drains.
func pprofCPU(w *respWriter, r *request) {
	if err := pprof.StartCPUProfile(w); err != nil {
		writeErr(w, statusInternalServerError, "could not enable CPU profiling: "+err.Error(), false, 0)
		return
	}
	sleep(r, 30*time.Second)
	pprof.StopCPUProfile() // returns once the profile is written into w
	attachment(w, "profile")
}

// pprofTrace traces the runtime for ?seconds=N, or until the listener
// drains.
func pprofTrace(w *respWriter, r *request) {
	if err := trace.Start(w); err != nil {
		writeErr(w, statusInternalServerError, "could not enable tracing: "+err.Error(), false, 0)
		return
	}
	sleep(r, time.Second)
	trace.Stop() // returns once the trace is written into w
	attachment(w, "trace")
}

// sleep waits ?seconds=N (def when absent or not positive), or until the
// request's context ends.
func sleep(r *request, def time.Duration) {
	d := def
	if sec, err := strconv.ParseInt(r.query.Get("seconds"), 10, 64); err == nil && sec > 0 {
		d = time.Duration(sec) * time.Second
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.ctx.Done():
	}
}

// attachment marks w's body as a binary file download named name.
func attachment(w *respWriter, name string) {
	w.ctype = "application/octet-stream"
	w.setHeader("Content-Disposition", `attachment; filename="`+name+`"`)
}
