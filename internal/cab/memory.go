package cab

import (
	"errors"
	"fmt"
)

// Memory layout constants from paper §5.2. The CAB occupies a 24-bit region
// of the node's VME address space; program and data memory are separate
// regions ("the memory architecture is thus optimized for the expected
// usage pattern").
const (
	// PageSize is the protection granularity ("each 1 kilobyte page to be
	// protected separately").
	PageSize = 1024

	// ProgBase/ProgSize: 128 KB PROM + 512 KB RAM of program memory.
	ProgBase = 0x000000
	ProgSize = 640 * 1024

	// DataBase/DataSize: 1 MB of data memory.
	DataBase = 0x100000
	DataSize = 1024 * 1024

	// RegBase covers CAB registers and devices (also page-protected).
	RegBase = 0x300000
	RegSize = 64 * 1024

	// AddrSpace is the 24-bit CAB address space size.
	AddrSpace = 1 << 24

	// NumDomains is the number of protection domains ("currently the CAB
	// supports 32 protection domains").
	NumDomains = 32

	// VMEDomain is the domain assigned to accesses from over the VME bus.
	VMEDomain = NumDomains - 1

	// KernelDomain is the CAB kernel's own domain.
	KernelDomain = 0
)

// Perm is a page-access permission bitmask.
type Perm byte

// Permissions ("any subset of read, write, and execute permissions").
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermRW  = PermRead | PermWrite
	PermAll = PermRead | PermWrite | PermExec
)

// Addr is a CAB-local address.
type Addr uint32

// ErrNoMemory is returned when an allocation cannot be satisfied.
var ErrNoMemory = errors.New("cab: out of data memory")

// ProtectionError describes a failed access check.
type ProtectionError struct {
	Domain int
	Addr   Addr
	Len    int
	Want   Perm
}

func (e *ProtectionError) Error() string {
	return fmt.Sprintf("cab: protection fault: domain %d access [%#x,+%d) perm %03b",
		e.Domain, e.Addr, e.Len, e.Want)
}

// Memory models the CAB's memory and its protection hardware. The data
// region is backed by real bytes: protocol code reads and writes actual
// message contents through it. A first-fit allocator manages the data
// region for mailboxes and buffers.
type Memory struct {
	data []byte // backing store for the data region

	// perms[domain][page] is the permission set of that page.
	perms [NumDomains][]Perm

	// Allocator free list over the data region: sorted, coalesced.
	free []span

	allocated int
	faults    int64
}

type span struct {
	base Addr
	size int
}

// NewMemory returns a CAB memory with the full data region free and all
// pages granted to the kernel domain only.
func NewMemory() *Memory {
	m := &Memory{
		data: make([]byte, DataSize),
		free: []span{{base: DataBase, size: DataSize}},
	}
	// One allocation backs every domain's table. As 32 separate 16 KiB
	// objects, the tables were zeroed page by page whenever the allocator
	// placed them on reused address ranges, which made assembly touch a
	// varying few hundred KiB; one large allocation stays untouched until
	// a permission is written.
	pages := AddrSpace / PageSize
	all := make([]Perm, NumDomains*pages)
	for d := 0; d < NumDomains; d++ {
		m.perms[d] = all[d*pages : (d+1)*pages : (d+1)*pages]
	}
	// The kernel can touch everything.
	for pg := range m.perms[KernelDomain] {
		m.perms[KernelDomain][pg] = PermAll
	}
	return m
}

// Faults returns the number of failed protection checks.
func (m *Memory) Faults() int64 { return m.faults }

// Allocated returns the number of data-region bytes currently allocated.
func (m *Memory) Allocated() int { return m.allocated }

// SetPerm assigns permissions for [addr, addr+size) pages in a domain.
func (m *Memory) SetPerm(domain int, addr Addr, size int, p Perm) {
	first := int(addr) / PageSize
	last := (int(addr) + size - 1) / PageSize
	for pg := first; pg <= last; pg++ {
		m.perms[domain][pg] = p
	}
}

// Check verifies that a domain may access [addr, addr+n) with permission
// want. Checks are performed by hardware in parallel with the access
// ("no latency is added to memory accesses"), so no CPU time is charged.
func (m *Memory) Check(domain int, addr Addr, n int, want Perm) error {
	if n <= 0 {
		return nil
	}
	first := int(addr) / PageSize
	last := (int(addr) + n - 1) / PageSize
	for pg := first; pg <= last; pg++ {
		if pg >= len(m.perms[domain]) || m.perms[domain][pg]&want != want {
			m.faults++
			return &ProtectionError{Domain: domain, Addr: addr, Len: n, Want: want}
		}
	}
	return nil
}

// inData reports whether [addr, addr+n) lies within the data region.
func inData(addr Addr, n int) bool {
	return addr >= DataBase && int(addr)+n <= DataBase+DataSize
}

// Read copies n bytes at addr out of data memory after a protection check.
func (m *Memory) Read(domain int, addr Addr, n int) ([]byte, error) {
	if !inData(addr, n) {
		return nil, &ProtectionError{Domain: domain, Addr: addr, Len: n, Want: PermRead}
	}
	if err := m.Check(domain, addr, n, PermRead); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.data[addr-DataBase:])
	return out, nil
}

// Write copies b into data memory at addr after a protection check.
func (m *Memory) Write(domain int, addr Addr, b []byte) error {
	if !inData(addr, len(b)) {
		return &ProtectionError{Domain: domain, Addr: addr, Len: len(b), Want: PermWrite}
	}
	if err := m.Check(domain, addr, len(b), PermWrite); err != nil {
		return err
	}
	copy(m.data[addr-DataBase:], b)
	return nil
}

// Slice exposes the raw data-region bytes at [addr, addr+n) without a
// protection check; it is the DMA controller's view (DMA is set up by the
// kernel, which owns the pages it targets).
func (m *Memory) Slice(addr Addr, n int) []byte {
	if !inData(addr, n) {
		panic(fmt.Sprintf("cab: DMA outside data region: [%#x,+%d)", addr, n))
	}
	return m.data[addr-DataBase : int(addr-DataBase)+n]
}

// Alloc reserves size bytes of data memory (first fit, 8-byte aligned).
func (m *Memory) Alloc(size int) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cab: bad allocation size %d", size)
	}
	size = (size + 7) &^ 7
	for i := range m.free {
		if m.free[i].size >= size {
			base := m.free[i].base
			m.free[i].base += Addr(size)
			m.free[i].size -= size
			if m.free[i].size == 0 {
				m.free = append(m.free[:i], m.free[i+1:]...)
			}
			m.allocated += size
			return base, nil
		}
	}
	return 0, ErrNoMemory
}

// Free returns a block to the allocator, coalescing adjacent spans.
func (m *Memory) Free(addr Addr, size int) {
	size = (size + 7) &^ 7
	m.allocated -= size
	// Insert sorted by base.
	i := 0
	for i < len(m.free) && m.free[i].base < addr {
		i++
	}
	m.free = append(m.free, span{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = span{base: addr, size: size}
	// Coalesce with neighbors.
	if i+1 < len(m.free) && m.free[i].base+Addr(m.free[i].size) == m.free[i+1].base {
		m.free[i].size += m.free[i+1].size
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].base+Addr(m.free[i-1].size) == m.free[i].base {
		m.free[i-1].size += m.free[i].size
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
}

// FreeBytes returns the total unallocated data memory.
func (m *Memory) FreeBytes() int {
	n := 0
	for _, s := range m.free {
		n += s.size
	}
	return n
}

// CheckFreeList verifies allocator invariants (sorted, non-overlapping,
// coalesced); used by property tests.
func (m *Memory) CheckFreeList() error {
	for i := 1; i < len(m.free); i++ {
		prev, cur := m.free[i-1], m.free[i]
		if prev.base+Addr(prev.size) > cur.base {
			return fmt.Errorf("cab: free list overlap at %d", i)
		}
		if prev.base+Addr(prev.size) == cur.base {
			return fmt.Errorf("cab: free list not coalesced at %d", i)
		}
	}
	return nil
}
