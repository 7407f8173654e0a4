package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// UDP is a loopback socket-pair transport: one UDP socket per side, each
// frame one datagram. It exercises the session layer against a real
// kernel network path.
//
// Unlike Mem, UDP enforces none of the channel axioms: the kernel may
// reorder or drop datagrams and no delay bound is checked (on loopback,
// delivery is near-instant in practice, and drops surface in the
// Dropped counter when the reader cannot keep up). Use it for load
// tests of the serving machinery, not for axiom-dependent experiments.
//
// A UDP that Open builds with fault clauses sends through its own delay
// line, the type Mem delivers through, with the fault plan as its
// policy: frames the plan drops never reach the socket, and frames it
// delays wait in the line. Frames due at once go straight to the
// socket, so the plan costs the fault-free path no scheduler latency.
type UDP struct {
	tConn, rConn *net.UDPConn
	tAddr, rAddr *net.UDPAddr

	del     map[wire.Dir]chan wire.Frame
	done    chan struct{}
	readers sync.WaitGroup

	// line holds the frames a fault plan delays; nil without a plan.
	line *delayLine

	// send holds one encode buffer per direction, reused by every write
	// in that direction. Its mutex guards the buffer: callers write
	// concurrently with each other and, under a fault plan, with the
	// line's scheduler writing delayed frames.
	send [2]struct {
		mu  sync.Mutex
		buf []byte
	}

	dropped   atomic.Int64
	malformed atomic.Int64
	sendErrs  atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

var _ Transport = (*UDP)(nil)

// maxDatagram is the largest IPv4 UDP payload: 65535 (IP total length)
// minus the 20-byte IP header and 8-byte UDP header. A frame must encode
// within it to be sendable as one datagram — wire.MaxFramePayload alone
// does not guarantee that (header + max payload is 65,569 bytes, 62 over
// the limit), so Send enforces MaxUDPPayload up front instead of letting
// the kernel fail the write with EMSGSIZE.
const maxDatagram = 65507

// MaxUDPPayload is the largest frame payload the UDP transport accepts:
// wire.FrameHeaderLen + MaxUDPPayload == maxDatagram.
const MaxUDPPayload = maxDatagram - wire.FrameHeaderLen

// NewUDPLoopback binds two UDP sockets on 127.0.0.1 — one per side — and
// starts their reader goroutines. buffer is the per-direction delivery
// channel capacity (default 1024).
func NewUDPLoopback(buffer int) (*UDP, error) {
	if buffer <= 0 {
		buffer = 1024
	}
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
	tConn, err := net.ListenUDP("udp4", loop)
	if err != nil {
		return nil, fmt.Errorf("transport: udp transmitter socket: %w", err)
	}
	rConn, err := net.ListenUDP("udp4", loop)
	if err != nil {
		tConn.Close()
		return nil, fmt.Errorf("transport: udp receiver socket: %w", err)
	}
	u := &UDP{
		tConn: tConn,
		rConn: rConn,
		tAddr: tConn.LocalAddr().(*net.UDPAddr),
		rAddr: rConn.LocalAddr().(*net.UDPAddr),
		del: map[wire.Dir]chan wire.Frame{
			wire.TtoR: make(chan wire.Frame, buffer),
			wire.RtoT: make(chan wire.Frame, buffer),
		},
		done: make(chan struct{}),
	}
	u.readers.Add(2)
	go u.read(rConn, wire.TtoR) // frames t->r arrive on the receiver socket
	go u.read(tConn, wire.RtoT) // frames r->t arrive on the transmitter socket
	return u, nil
}

// Name renders the transport and its two endpoints, followed by the
// fault plan's name when it has one.
func (u *UDP) Name() string {
	name := fmt.Sprintf("udp(t=%v r=%v)", u.tAddr, u.rAddr)
	if u.line != nil {
		name += "/" + u.line.policy.Name()
	}
	return name
}

// Send writes the frame as one datagram, first running it through the
// fault plan when there is one: a dropped frame is never written, a
// duplicated one is written twice, a corrupted one with a damaged
// symbol, and a delayed one by the line's scheduler once its extra
// delay elapses.
func (u *UDP) Send(f wire.Frame) error {
	if u.line == nil {
		return u.write(f)
	}
	due, err := u.line.push(f, true)
	for _, df := range due {
		if e := u.write(df); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// release writes a frame the fault plan delayed. A failed write has no
// caller left to return to, so it is counted: loss on the far side of a
// latency spike.
func (u *UDP) release(e pending) {
	if err := u.write(e.f); err != nil {
		u.sendErrs.Add(1)
	}
}

// write encodes the frame into its direction's reused buffer and writes
// it as one datagram from its source side's socket to the destination
// side's socket. Frames whose payload exceeds MaxUDPPayload are
// rejected — they could never fit one IPv4 datagram.
func (u *UDP) write(f wire.Frame) error {
	select {
	case <-u.done:
		return ErrClosed
	default:
	}
	if len(f.Payload) > MaxUDPPayload {
		return fmt.Errorf("transport: udp payload %d bytes exceeds %d (frame must fit one datagram)", len(f.Payload), MaxUDPPayload)
	}
	s := &u.send[0]
	conn, to := u.tConn, u.rAddr
	if f.Dir != wire.TtoR {
		s = &u.send[1]
		conn, to = u.rConn, u.tAddr
	}
	s.mu.Lock()
	// AppendFrame cannot fail: the payload fits MaxUDPPayload.
	s.buf, _ = wire.AppendFrame(s.buf[:0], f)
	_, err := conn.WriteToUDP(s.buf, to)
	s.mu.Unlock()
	if err != nil {
		select {
		case <-u.done:
			return ErrClosed
		default:
		}
		return fmt.Errorf("transport: udp send: %w", err)
	}
	return nil
}

// Deliveries returns the delivery channel for frames traveling in dir.
func (u *UDP) Deliveries(dir wire.Dir) <-chan wire.Frame { return u.del[dir] }

// Dropped counts frames discarded because a delivery buffer was full —
// the UDP analogue of a kernel socket-buffer drop.
func (u *UDP) Dropped() int64 { return u.dropped.Load() }

// Malformed counts datagrams that failed frame validation and were
// discarded.
func (u *UDP) Malformed() int64 { return u.malformed.Load() }

// Close stops the fault plan's delay line, if any (frames it still
// holds are discarded, like a partition that never heals), shuts both
// sockets down, stops the readers and closes the delivery channels.
func (u *UDP) Close() error {
	if u.line != nil {
		return u.line.close(u.shutdown)
	}
	return u.shutdown()
}

// shutdown is Close without the delay line.
func (u *UDP) shutdown() error {
	u.closeOnce.Do(func() {
		close(u.done)
		e1 := u.tConn.Close()
		e2 := u.rConn.Close()
		u.readers.Wait()
		close(u.del[wire.TtoR])
		close(u.del[wire.RtoT])
		if e1 != nil {
			u.closeErr = e1
		} else {
			u.closeErr = e2
		}
	})
	return u.closeErr
}

// read pumps one socket into one delivery channel until the socket closes.
// Malformed datagrams (including frames whose declared payload length
// exceeds the datagram — see wire.ParseFrame) are counted and dropped,
// never fatal: untrusted bytes cannot take the transport down. Frames
// whose direction does not match the socket's are discarded likewise.
func (u *UDP) read(conn *net.UDPConn, dir wire.Dir) {
	defer u.readers.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, err := conn.Read(buf) // the sender's address is never needed
		if err != nil {
			return // socket closed (or fatally broken): reader exits
		}
		f, err := wire.ParseFrame(buf[:n])
		if err != nil || f.Dir != dir {
			u.malformed.Add(1)
			continue
		}
		select {
		case u.del[dir] <- f:
		default:
			u.dropped.Add(1)
		}
	}
}
