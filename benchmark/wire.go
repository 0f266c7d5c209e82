package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// wireConn is the load loops' HTTP/1.1 client: one keep-alive TCP
// connection, a request written in one call and the response parsed in
// place. Go's net/http client spends about as much CPU per request as
// slserve does to serve it (two goroutines and channel hand-offs per round
// trip); on a two-core host that CPU comes out of the server's share and its
// scheduling noise lands in the tail. The bytes on the wire are the same.
type wireConn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	req  []byte
}

// wireResp is one parsed response; body aliases the connection's buffer
// until the next round trip.
type wireResp struct {
	status   int
	degraded bool // X-SL-Degraded: answered from the frontend's ledger
	body     []byte
}

const wireTimeout = 10 * time.Second

var errChunked = errors.New("chunked response bodies are not supported")

func (w *wireConn) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// roundTrip sends method target (path and query) and reads the response.
// Any error closes the connection; the next call redials.
func (w *wireConn) roundTrip(method string, target []byte, body *bytes.Buffer) (wireResp, error) {
	resp, err := w.try(method, target, body)
	if err != nil {
		w.close()
	}
	return resp, err
}

func (w *wireConn) try(method string, target []byte, body *bytes.Buffer) (wireResp, error) {
	if w.c == nil {
		c, err := net.DialTimeout("tcp", w.addr, wireTimeout)
		if err != nil {
			return wireResp{}, err
		}
		w.c, w.br = c, bufio.NewReaderSize(c, 16<<10)
	}
	if err := w.c.SetDeadline(time.Now().Add(wireTimeout)); err != nil {
		return wireResp{}, err
	}
	w.req = append(w.req[:0], method...)
	w.req = append(w.req, ' ')
	w.req = append(w.req, target...)
	w.req = append(w.req, " HTTP/1.1\r\nHost: "...)
	w.req = append(w.req, w.addr...)
	if method == "POST" {
		w.req = append(w.req, "\r\nContent-Length: 0"...)
	}
	w.req = append(w.req, "\r\n\r\n"...)
	if _, err := w.c.Write(w.req); err != nil {
		return wireResp{}, err
	}

	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return wireResp{}, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return wireResp{}, fmt.Errorf("malformed status line %q", line)
	}
	var resp wireResp
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return wireResp{}, fmt.Errorf("malformed status line %q", line)
	}
	length, keepAlive := -1, true
	for {
		h, err := w.br.ReadSlice('\n')
		if err != nil {
			return wireResp{}, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return wireResp{}, fmt.Errorf("malformed header %q", h)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return wireResp{}, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			return wireResp{}, errChunked
		case bytes.EqualFold(name, []byte("Connection")):
			keepAlive = !bytes.EqualFold(value, []byte("close"))
		case bytes.EqualFold(name, []byte("X-SL-Degraded")):
			resp.degraded = true
		}
	}
	if length < 0 {
		return wireResp{}, errors.New("response without Content-Length")
	}
	body.Reset()
	if _, err := io.CopyN(body, w.br, int64(length)); err != nil {
		return wireResp{}, err
	}
	resp.body = body.Bytes()
	if !keepAlive {
		w.close()
	}
	return resp, nil
}
