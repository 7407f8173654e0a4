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
// Dropped counter when a consumer falls a whole backlog behind). Use it
// for load tests of the serving machinery, not for axiom-dependent
// experiments.
//
// Its delivery storage has Mem's shape: per direction, a channel of at
// most 1024 frames with a FIFO ring behind it that grows with the
// backlog. The direction's socket reader sends straight into the
// channel while the ring is empty; once the channel is full it pushes
// onto the ring, and a drainer goroutine, which exists only while the
// ring holds frames, moves them on into the channel in order.
//
// A UDP that Open builds with fault clauses sends through its own delay
// line, the type Mem delivers through, with the fault plan as its
// policy: frames the plan drops never reach the socket, and frames it
// delays wait in the line. Frames due at once go straight to the
// socket, so the plan costs the fault-free path no scheduler latency.
type UDP struct {
	tConn, rConn *net.UDPConn
	tAddr, rAddr *net.UDPAddr

	// out holds each direction's delivery channel and backlog ring.
	out handoff
	// backlog guards a direction's ring; draining is set while a
	// drainer moves it.
	backlog [2]struct {
		mu       sync.Mutex
		draining bool
	}
	// buffer bounds each direction's waiting frames (NewUDPLoopback).
	buffer  int
	done    chan struct{}
	readers sync.WaitGroup // socket readers and running drainers

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
// starts their reader goroutines. buffer bounds each direction's
// backlog: the frames read off its socket that its consumer has not yet
// taken (default 1024). Storage grows with the backlog and is kept for
// reuse; nothing is reserved up front beyond a channel of at most 1024
// frames. A frame that arrives while buffer frames wait in its
// direction is dropped and counted in Dropped.
func NewUDPLoopback(buffer int) (*UDP, error) {
	if buffer <= 0 {
		buffer = defaultBuffer
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
		tConn:  tConn,
		rConn:  rConn,
		tAddr:  tConn.LocalAddr().(*net.UDPAddr),
		rAddr:  rConn.LocalAddr().(*net.UDPAddr),
		out:    newHandoff(buffer),
		buffer: buffer,
		done:   make(chan struct{}),
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
func (u *UDP) Deliveries(dir wire.Dir) <-chan wire.Frame { return u.out.ch[dirIndex(dir)] }

// Dropped counts frames discarded because buffer frames already waited
// in their direction — the UDP analogue of a kernel socket-buffer drop.
func (u *UDP) Dropped() int64 { return u.dropped.Load() }

// Malformed counts datagrams that failed frame validation and were
// discarded.
func (u *UDP) Malformed() int64 { return u.malformed.Load() }

// Close stops the fault plan's delay line, if any (frames it still
// holds are discarded, like a partition that never heals), shuts both
// sockets down, stops the readers and drainers and closes the delivery
// channels. Frames still on a backlog ring are discarded.
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
		close(u.out.ch[0])
		close(u.out.ch[1])
		if e1 != nil {
			u.closeErr = e1
		} else {
			u.closeErr = e2
		}
	})
	return u.closeErr
}

// read pumps one socket into one direction's delivery storage until the
// socket closes. Malformed datagrams (including frames whose declared
// payload length exceeds the datagram — see wire.ParseFrame) are
// counted and dropped, never fatal: untrusted bytes cannot take the
// transport down. Frames whose direction does not match the socket's
// are discarded likewise.
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
		u.deliver(dirIndex(dir), f)
	}
}

// deliver hands a frame read off direction d's socket to its consumer:
// straight into the channel while the ring is empty and the channel has
// room, else onto the ring, starting a drainer if none runs. The reader
// is the ring's only pusher and never bypasses a ring that holds
// frames, so frames reach the consumer in the order they were read. A
// frame that finds buffer frames waiting (in the channel or on the
// ring) is dropped and counted.
func (u *UDP) deliver(d int, f wire.Frame) {
	b, r, ch := &u.backlog[d], &u.out.ring[d], u.out.ch[d]
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.n == 0 {
		select {
		case ch <- f:
			return
		default:
		}
	}
	if r.n+len(ch) >= u.buffer {
		u.dropped.Add(1)
		return
	}
	r.push(f, u.buffer)
	if !b.draining {
		b.draining = true
		u.readers.Add(1)
		go u.drain(d)
	}
}

// drain moves direction d's ring into its channel, oldest first, and
// exits once the ring is empty or the transport closes. A frame leaves
// the ring only after the channel has taken it, so the backlog bound
// counts it while the send waits (and, for the instant between the two,
// twice).
func (u *UDP) drain(d int) {
	defer u.readers.Done()
	b, r := &u.backlog[d], &u.out.ring[d]
	b.mu.Lock()
	for r.n > 0 {
		f := r.front()
		b.mu.Unlock()
		select {
		case u.out.ch[d] <- f:
		case <-u.done:
			return
		}
		b.mu.Lock()
		r.pop()
	}
	b.draining = false
	b.mu.Unlock()
}
