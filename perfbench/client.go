package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"strconv"
	"time"
)

// clientConn is one keep-alive HTTP/1.1 connection to the router,
// driven by a single caller: the request is written and the reply read
// on the caller's own goroutine, so the load generator adds no
// goroutine hand-offs of its own to the path it measures.
type clientConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	head []byte
	body bytes.Buffer
}

func newClientConn(addr string) *clientConn { return &clientConn{addr: addr} }

func (c *clientConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// post sends one request whose body is the concatenation of parts and
// returns the reply's status, headers and body. The body is valid until
// the next call. A transport error closes the connection; the next call
// dials a fresh one.
func (c *clientConn) post(path, contentType string, parts ...[]byte) (int, http.Header, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil, nil, err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 4096)
		c.bw = bufio.NewWriterSize(conn, 64<<10)
	}
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	h := append(c.head[:0], "POST "...)
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.addr...)
	h = append(h, "\r\nContent-Type: "...)
	h = append(h, contentType...)
	h = append(h, "\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(size), 10)
	h = append(h, "\r\n\r\n"...)
	c.head = h
	_, err := c.bw.Write(h)
	for _, p := range parts {
		if err == nil {
			_, err = c.bw.Write(p)
		}
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.close()
		return 0, nil, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, resp.Header, c.body.Bytes(), err
}
