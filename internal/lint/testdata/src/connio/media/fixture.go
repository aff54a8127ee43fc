// Package media is a connio fixture: outside package wire a conn is
// never read, written, or handed to a wire/io reader or writer — a
// deadline armed beside the I/O does not make it legal — while framing
// it through wire.NewConn is, and thin forwarders are exempt.
package media

import (
	"io"
	"net"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

func handshake(conn net.Conn, buf []byte) error {
	_, err := conn.Write(buf) // want `conn I/O on "conn" outside package wire`
	return err
}

func handshakeArmed(conn net.Conn, buf []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := conn.Write(buf) // want `conn I/O on "conn" outside package wire`
	return err
}

func readReply(conn net.Conn, buf []byte) error {
	_, err := conn.Read(buf) // want `conn I/O on "conn" outside package wire`
	return err
}

func hello(conn net.Conn) error {
	return wire.Write(conn, wire.Message{}) // want `conn I/O on "conn" outside package wire`
}

func drain(conn net.Conn, buf []byte) error {
	_, err := io.ReadFull(conn, buf) // want `conn I/O on "conn" outside package wire`
	return err
}

// framed hands the conn to wire once and does all I/O through the
// wire.Conn, which arms the deadlines.
func framed(nc net.Conn) (wire.Message, error) {
	c := wire.NewConn(nc, time.Second, time.Second)
	if err := c.Write(wire.Message{Type: wire.TypePing}); err != nil {
		return wire.Message{}, err
	}
	return c.Read(wire.DefaultMaxPayload)
}

// loggedConn forwards to the wrapped conn; the deadline obligation stays
// with the wire.Conn that owns it.
type loggedConn struct{ net.Conn }

func (c *loggedConn) Write(p []byte) (int, error) {
	return c.Conn.Write(p)
}
