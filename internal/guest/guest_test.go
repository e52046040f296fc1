package guest

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
)

func testGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 2048, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

func testProfile() dram.Profile {
	p := dram.ProfileF()
	p.VulnerableRowFraction = 1
	p.WeakCellsPerRow = 3000
	p.HammerThreshold = 5000
	p.Transforms = addr.TransformConfig{}
	return p
}

func bootGuest(t *testing.T) (*core.Hypervisor, *core.VM, *Kernel) {
	t.Helper()
	h, err := core.Boot(core.Config{
		Geometry:      testGeometry(),
		Profiles:      []dram.Profile{testProfile()},
		EPTProtection: ept.GuardRows,
	}, core.ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(core.Process{KVMPrivileged: true},
		core.VMSpec{Name: "g", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	return h, vm, NewKernel(vm)
}

func TestThreeLevelTranslationChain(t *testing.T) {
	// §2.1: GVA -> GPA (guest page tables) -> HPA (EPTs).
	_, vm, k := bootGuest(t)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x7f00_0000_0000)
	gpa, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(gva, gpa); err != nil {
		t.Fatal(err)
	}
	gotGPA, err := proc.Translate(gva + 123)
	if err != nil {
		t.Fatal(err)
	}
	if gotGPA != gpa+123 {
		t.Fatalf("Translate = %#x, want %#x", gotGPA, gpa+123)
	}
	hpa, err := vm.Translate(gotGPA)
	if err != nil {
		t.Fatal(err)
	}
	if !vm.InDomain(hpa) {
		t.Error("guest frame resolved outside the VM's domain")
	}
}

func TestProcessReadWrite(t *testing.T) {
	_, _, k := bootGuest(t)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x4000_0000)
	gpa, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(gva, gpa); err != nil {
		t.Fatal(err)
	}
	data := []byte("userspace data")
	if err := proc.Write(gva+100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := proc.Read(gva+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip failed")
	}
	if err := proc.Read(0xdead000, got); err == nil {
		t.Error("unmapped gva readable")
	}
}

func TestAddressSpacesAreIsolated(t *testing.T) {
	_, _, k := bootGuest(t)
	p1, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x1000_0000)
	for _, p := range []*Process{p1, p2} {
		gpa, err := k.allocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Map(gva, gpa); err != nil {
			t.Fatal(err)
		}
	}
	gpa1, _ := p1.Translate(gva)
	if gpa2, _ := p2.Translate(gva); gpa1 == gpa2 {
		t.Fatal("two processes share a frame for private mappings")
	}
	if err := p1.Write(gva, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := p2.Write(gva, []byte("two")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := p1.Read(gva, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "one" {
		t.Errorf("p1 sees %q", buf)
	}
}

func TestMapValidation(t *testing.T) {
	_, _, k := bootGuest(t)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(123, 0); err == nil {
		t.Error("misaligned gva accepted")
	}
	if err := proc.Map(0, 123); err == nil {
		t.Error("misaligned gpa accepted")
	}
}

// TestIntraVMPTHammer makes the §9 trade-off concrete: an in-guest process
// can flip bits in its own kernel's page tables (PTHammer), because guest
// page tables share the VM's subarray groups with guest data. Siloz accepts
// this: the damage is confined to the attacking VM.
func TestIntraVMPTHammer(t *testing.T) {
	h, vm, k := bootGuest(t)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x2000_0000)
	gpa, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(gva, gpa); err != nil {
		t.Fatal(err)
	}
	before, err := proc.Translate(gva)
	if err != nil {
		t.Fatal(err)
	}

	// The process hammers guest frames adjacent (in DRAM) to a page
	// table frame. The kernel's frame allocator is a bump allocator, so
	// table frames and user frames are physically interleaved — the
	// attacker maps frames around the leaf table page and hammers them.
	leafTable := proc.TablePages()[len(proc.TablePages())-1]
	hpaTable, err := vm.Translate(leafTable)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := h.Memory().Mapper().Decode(hpaTable)
	if err != nil {
		t.Fatal(err)
	}
	mem := h.Memory()
	for _, row := range []int{ma.Row - 1, ma.Row + 1} {
		pa, err := mem.Mapper().Encode(geometry.MediaAddr{Bank: ma.Bank, Row: row, Col: 0})
		if err != nil {
			t.Fatal(err)
		}
		// The rows around the table are the VM's own RAM: the guest
		// can hammer them directly.
		if !vm.InDomain(pa) {
			t.Skipf("neighbour row outside VM domain; adjust geometry")
		}
		if err := mem.ActivatePhys(pa, 20_000, 0); err != nil {
			t.Fatal(err)
		}
	}
	after, errAfter := proc.Translate(gva)
	if errAfter == nil && after == before {
		t.Fatal("guest page table survived; intra-VM PTHammer not demonstrated")
	}
	// The corruption stayed inside the VM's own domain (§9: acceptable
	// trade-off).
	for _, f := range mem.Flips() {
		pa, err := mem.FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("intra-VM hammering escaped the domain: %v", f)
		}
	}
}

func TestHammerVirtualContained(t *testing.T) {
	h, vm, k := bootGuest(t)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x3000_0000)
	gpa, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(gva, gpa); err != nil {
		t.Fatal(err)
	}
	if err := proc.HammerVirtual(gva, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	if err := proc.HammerVirtual(0xdead000, 10, 0); err == nil {
		t.Error("hammering an unmapped gva succeeded")
	}
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("virtual-address hammering escaped the VM: %v", f)
		}
	}
}

func TestKernelFrameExhaustion(t *testing.T) {
	_, _, k := bootGuest(t)
	k.limit = k.nextFrame + 2*4096 // leave room for two frames
	proc, err := k.Spawn()         // consumes one frame (root)
	if err != nil {
		t.Fatal(err)
	}
	// Mapping needs 3 intermediate tables: must fail.
	if err := proc.Map(0x5000_0000, 0); err == nil || errors.Is(err, ErrOutOfRange) {
		t.Errorf("mapping beyond the frame limit: err = %v, want out of guest frames", err)
	}
}

// TestMapReclaimsDisplacedFrame: remapping a present GVA must not leak the
// old backing frame — it returns to the kernel free list and is the next
// frame handed out.
func TestMapReclaimsDisplacedFrame(t *testing.T) {
	_, _, k := bootGuest(t)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x7f00_0000_0000)
	oldGPA, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(gva, oldGPA); err != nil {
		t.Fatal(err)
	}
	newGPA, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(gva, newGPA); err != nil {
		t.Fatal(err)
	}
	if got, _ := proc.Translate(gva); got != newGPA {
		t.Fatalf("Translate = %#x, want %#x", got, newGPA)
	}
	if len(k.freeFrames) != 1 || k.freeFrames[0] != oldGPA {
		t.Fatalf("free list = %#v, want the displaced frame %#x", k.freeFrames, oldGPA)
	}
	reused, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if reused != oldGPA {
		t.Errorf("allocFrame = %#x, want reclaimed %#x", reused, oldGPA)
	}
	// Remapping to the same frame must not put it on the free list.
	if err := proc.Map(gva, newGPA); err != nil {
		t.Fatal(err)
	}
	if len(k.freeFrames) != 0 {
		t.Errorf("self-remap freed the live frame: %#v", k.freeFrames)
	}
}

// TestMapRejectsOutOfRangeGPA: a GPA beyond the kernel's usable memory is
// refused at map time, not at first translate.
func TestMapRejectsOutOfRangeGPA(t *testing.T) {
	_, vm, k := bootGuest(t)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	err = proc.Map(0x7f00_0000_0000, vm.Spec().MemoryBytes)
	if !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Map past the limit = %v, want ErrOutOfRange", err)
	}
}

// TestNonCanonicalGVARejected: bits 63:48 are not translation inputs in a
// 48-bit walk, so two GVAs differing only there would silently alias; the
// kernel must reject non-canonical addresses like hardware's #GP.
func TestNonCanonicalGVARejected(t *testing.T) {
	_, _, k := bootGuest(t)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x7f00_0000_0000)
	gpa, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(gva, gpa); err != nil {
		t.Fatal(err)
	}
	alias := gva | 1<<48 // same low 48 bits, non-canonical
	if _, terr := proc.Translate(alias); !errors.Is(terr, ErrNonCanonical) {
		t.Errorf("Translate(non-canonical) = %v, want ErrNonCanonical", terr)
	}
	if merr := proc.Map(1<<63, 0); !errors.Is(merr, ErrNonCanonical) {
		t.Errorf("Map(non-canonical) = %v, want ErrNonCanonical", merr)
	}
	// Properly sign-extended kernel-half addresses stay usable.
	if merr := proc.Map(0xffff_8000_0000_0000, 0); merr != nil {
		t.Errorf("canonical high-half Map failed: %v", merr)
	}
}
