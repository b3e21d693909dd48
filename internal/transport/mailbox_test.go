package transport

import "testing"

// TestMailboxFIFOAcrossResetAndCompaction: order holds when the mailbox
// drains (the array is reset) and when a backlog that never drains is
// compacted to the front of its array.
func TestMailboxFIFOAcrossResetAndCompaction(t *testing.T) {
	m := newMailbox()
	next, want := 0, 0
	push := func(k int) {
		for range k {
			if !m.push(Message{Payload: next}) {
				t.Fatal("push refused on an open mailbox")
			}
			next++
		}
	}
	pop := func(k int) {
		for range k {
			msg, ok := m.pop()
			if !ok {
				t.Fatalf("mailbox empty, want message %d", want)
			}
			if msg.Payload != want {
				t.Fatalf("popped %v, want %d", msg.Payload, want)
			}
			want++
		}
	}
	push(5)
	pop(5) // drained: reset
	if len(m.queue) != 0 || m.head != 0 {
		t.Fatalf("drained mailbox holds len %d head %d", len(m.queue), m.head)
	}
	push(3)
	pop(2)
	push(1)
	pop(2) // drained again mid-sequence
	compactions := 0
	push(64)
	for round := 0; round < 500; round++ {
		before := m.head
		pop(3)
		if m.head < before {
			compactions++
		}
		push(3)
	}
	pop(64)
	if _, ok := m.pop(); ok {
		t.Fatal("mailbox not empty after popping everything pushed")
	}
	if compactions == 0 {
		t.Fatal("a standing backlog was never compacted")
	}
}

// TestMailboxBacklogBounded: under a standing backlog of 100 messages, the
// array a mailbox keeps stays within a small multiple of the backlog.
func TestMailboxBacklogBounded(t *testing.T) {
	m := newMailbox()
	for i := range 100 {
		m.push(Message{Payload: i})
	}
	for range 100_000 {
		m.push(Message{})
		m.push(Message{})
		m.pop()
		m.pop()
		if c := cap(m.queue); c >= 1024 {
			t.Fatalf("backlog of 100 holds an array of %d", c)
		}
	}
	if n := len(m.queue) - m.head; n != 100 {
		t.Fatalf("backlog %d, want 100", n)
	}
}

// TestMailboxPopReleasesMessages: a popped slot no longer references its
// payload, so a reused array does not keep delivered messages alive.
func TestMailboxPopReleasesMessages(t *testing.T) {
	m := newMailbox()
	for i := range 4 {
		m.push(Message{From: "a", Payload: i})
	}
	m.pop()
	m.pop()
	for i, msg := range m.queue[:m.head] {
		if msg != (Message{}) {
			t.Fatalf("consumed slot %d still holds %+v", i, msg)
		}
	}
}
