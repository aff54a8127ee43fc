// Package wire is a connio fixture for a package's own unexported framing
// helpers: a conn handed to one is conn I/O, as it is when handed to the
// exported wire.Read or wire.Write.
package wire

import (
	"io"
	"net"
	"time"
)

func writeFrame(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

func readFrame(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	return err
}

func send(conn net.Conn, b []byte) error {
	return writeFrame(conn, b) // want `write to conn "conn" without a deadline`
}

func sendArmed(conn net.Conn, b []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	return writeFrame(conn, b)
}

func recv(conn net.Conn, b []byte) error {
	return readFrame(conn, b) // want `read from conn "conn" without a deadline`
}

func recvArmed(conn net.Conn, b []byte) error {
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	return readFrame(conn, b)
}
