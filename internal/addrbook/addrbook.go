// Package addrbook is the port layout of a `curpd -mode cluster`
// deployment. curpd binds its servers by it and curpctl derives every
// endpoint from the one -coordinator address with it, so the two cannot
// disagree. scripts/*_smoke.sh hard-code the same numbers: the layout must
// not move.
package addrbook

import (
	"net"
	"strconv"
)

// Role names a node's slot inside its shard's port block.
type Role int

// Offsets inside a shard's block of 1000 ports, which starts at the
// deployment's base port + shard*1000.
const (
	Coordinator  Role = iota // replica 0 at +0, replica i>0 at +1+i (the master holds +1)
	Master                   // +1
	Backup                   // +100+i
	Witness                  // +200+i
	Spare                    // +300+i: promoted masters
	SpareWitness             // +400+i: replacement witnesses
	SpareBackup              // +300+i too: replacement backups share Spare's ports and numbering
)

// Book locates every node of a deployment from shard 0's first coordinator
// replica.
type Book struct {
	Host string
	Port int
}

// Parse reads a Book from shard 0's coordinator address (host:port).
func Parse(coordAddr string) (Book, error) {
	host, portStr, err := net.SplitHostPort(coordAddr)
	if err != nil {
		return Book{}, err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return Book{}, err
	}
	return Book{Host: host, Port: port}, nil
}

func (b Book) port(shard int, role Role, i int) int {
	p := b.Port + shard*1000
	switch role {
	case Coordinator:
		if i > 0 {
			p += 1 + i
		}
	case Master:
		p++
	case Backup:
		p += 100 + i
	case Witness:
		p += 200 + i
	case Spare, SpareBackup:
		p += 300 + i
	case SpareWitness:
		p += 400 + i
	}
	return p
}

func (b Book) addr(port int) string { return net.JoinHostPort(b.Host, strconv.Itoa(port)) }

// RPC returns the RPC address of the i-th node of the given role in shard.
func (b Book) RPC(shard int, role Role, i int) string { return b.addr(b.port(shard, role, i)) }

// Metrics returns the node's observability address (/metrics, /trace,
// /events): its RPC port + 500. The rank-0 coordinator's endpoint doubles
// as the partition dashboard, and the master's re-resolves the live master
// per request, so both stay valid across failovers.
func (b Book) Metrics(shard int, role Role, i int) string {
	return b.addr(b.port(shard, role, i) + 500)
}

// MetricsOf returns the observability address of the node serving RPCs at
// rpcAddr — same host, port + 500 — so a node found at run time (a spare, a
// promoted master) needs no slot to be located.
func MetricsOf(rpcAddr string) (string, error) {
	b, err := Parse(rpcAddr)
	if err != nil {
		return "", err
	}
	return b.addr(b.Port + 500), nil
}
