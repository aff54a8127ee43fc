// Package wire is where connection I/O lives: its raw reads and writes,
// through its own framing helpers or directly, produce zero findings
// (its tests pin the deadline on each).
package wire

import (
	"io"
	"net"
)

func writeFrame(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

func send(conn net.Conn, b []byte) error {
	return writeFrame(conn, b)
}

func recv(conn net.Conn, b []byte) error {
	_, err := io.ReadFull(conn, b)
	return err
}
