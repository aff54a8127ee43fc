// Package other sits outside connio's scope (media, edge, faults,
// sched): identical raw conn I/O must produce zero findings.
package other

import "net"

func handshake(conn net.Conn, buf []byte) error {
	_, err := conn.Write(buf)
	return err
}
