// Package transport abstracts the byte-stream networks CURP runs over. Two
// implementations are provided: TCP (for real deployments via cmd/curpd) and
// an in-memory network with injectable one-way latency, asymmetric
// partitions, and blackholes — the test double standing in for the paper's
// InfiniBand and 10GbE fabrics. The protocol figures depend on RTT counts,
// not absolute wire speed, so an in-memory fabric with configured delays
// preserves the behaviour being measured.
package transport

import (
	"net"
	"time"
)

// Network creates listeners and connections by symbolic address.
type Network interface {
	// Listen starts accepting connections at addr.
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr. from identifies the caller for latency and
	// partition bookkeeping; TCP ignores it.
	Dial(from, addr string) (net.Conn, error)
}

// LatencyModel computes the one-way delay for a message of size bytes sent
// between two hosts. Implementations must be safe for concurrent use.
type LatencyModel interface {
	Delay(from, to string, size int) time.Duration
}

// LatencyFunc adapts a function to a LatencyModel.
type LatencyFunc func(from, to string, size int) time.Duration

// Delay implements LatencyModel.
func (f LatencyFunc) Delay(from, to string, size int) time.Duration { return f(from, to, size) }

// NoLatency is a zero-delay model.
var NoLatency = LatencyFunc(func(string, string, int) time.Duration { return 0 })

// ConstantLatency returns a model with a fixed one-way delay between
// distinct hosts and zero delay for loopback traffic.
func ConstantLatency(d time.Duration) LatencyModel {
	return LatencyFunc(func(from, to string, _ int) time.Duration {
		if from == to {
			return 0
		}
		return d
	})
}
