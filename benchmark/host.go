package main

import (
	"fmt"
	"io"
	"net"
	"time"
)

// Hosts drift: on a 2-vCPU nested VM, back-to-back sets of runs of
// identical code came out 20-45% apart in throughput, latency and setup
// time. The end-to-end metrics are therefore normalized to a nominal host
// speed. The probe for that speed is the serving path's common denominator:
// a one-byte round trip over loopback TCP between two goroutines (a write,
// a wakeup and a read each way), taken right before every setup and rep.
// A change to slserve moves its metrics but not the probe, which is
// benchmark code; a slower host moves both.
const nominalRTTus = 7.0

// probeTrips is the round trips one probe averages over (about 15 ms).
const probeTrips = 2000

// hostProbe is an echo connection over loopback, kept open for a run.
type hostProbe struct {
	ln   net.Listener
	c    net.Conn
	done chan struct{}
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &hostProbe{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // echo until the client side closes
	}()
	if p.c, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-p.done
		return nil, fmt.Errorf("host probe: %w", err)
	}
	return p, nil
}

// rttUS returns the mean loopback round trip in microseconds.
func (p *hostProbe) rttUS() (float64, error) {
	var b [1]byte
	start := time.Now()
	for i := 0; i < probeTrips; i++ {
		if _, err := p.c.Write(b[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		if _, err := io.ReadFull(p.c, b[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / probeTrips / 1e3, nil
}

// close stops the echo goroutine and waits for it.
func (p *hostProbe) close() {
	p.c.Close()
	p.ln.Close()
	<-p.done
}

// Normalizing a measurement taken when the probe read rtt: on a host twice
// as slow, throughput halves and times double.
func normRate(v, rtt float64) float64 { return v * rtt / nominalRTTus }
func normTime(v, rtt float64) float64 { return v * nominalRTTus / rtt }
