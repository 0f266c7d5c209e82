package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// runTier runs serve (a tier's whole lifecycle) with -debug-addr set, and
// returns the debug listener's base URL once it answers. The tier drains
// when the test ends.
func runTier(t *testing.T, serve func(context.Context) error) string {
	t.Helper()
	setFlag(t, rollover, false)
	setFlag(t, debugAddr, freeAddr(t))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	base := "http://" + *debugAddr
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/debug/pprof/")
		if err == nil {
			resp.Body.Close()
			return base
		}
		if i == 100 {
			t.Fatalf("debug listener never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestFrontendDebugListener: -debug-addr on the routing tier serves
// net/http/pprof and the frontend registry's /metrics.
func TestFrontendDebugListener(t *testing.T) {
	setFlag(t, addr, freeAddr(t))
	setFlag(t, backendsFlag, startWire(t, newServer(4, 2, 0).wire()).URL)
	base := runTier(t, runFrontend)
	if code, body := getText(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("GET /debug/pprof/ = %d, %.80q; want the pprof index", code, body)
	}
	if code, body := getText(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "\ncluster_epoch ") {
		t.Errorf("GET /metrics = %d without a cluster_epoch sample", code)
	}
}

// TestDebugListenerBodyCap: the debug listener reads at most debugBodyLimit
// of a request body. /debug/pprof/symbol reads its body to the end, so a
// 1 MiB POST must be cut off: the symbol reader reports the read error, or
// the connection closes under the client's upload.
func TestDebugListenerBodyCap(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := runTier(t, func(ctx context.Context) error { return serveLoop(ctx, newServer(4, 2, 0), ln) })
	body := bytes.Repeat([]byte("0x1+"), 1<<18) // 1 MiB
	resp, err := http.Post(base+"/debug/pprof/symbol", "text/plain", bytes.NewReader(body))
	if err != nil {
		return // cut off mid-upload
	}
	defer resp.Body.Close()
	answer, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(answer), "request body too large") {
		t.Fatalf("1 MiB POST /debug/pprof/symbol answered %d %.120q; want it cut off at %d bytes", resp.StatusCode, answer, debugBodyLimit)
	}
}
