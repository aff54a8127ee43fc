// Package sched is a connio fixture for the scheduler: no conn I/O at
// all, so none under a lock, armed or not.
package sched

import (
	"net"
	"sync"
	"time"
)

type queue struct{ mu sync.Mutex }

func (q *queue) connUnderLockArmed(conn net.Conn, buf []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	q.mu.Lock()
	defer q.mu.Unlock()
	_, err := conn.Write(buf) // want `conn I/O on "conn" outside package wire`
	return err
}

func (q *queue) connUnderLock(conn net.Conn, buf []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, err := conn.Write(buf) // want `conn I/O on "conn" outside package wire`
	return err
}
