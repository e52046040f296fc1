package attack

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/geometry"
)

// This file holds the per-line FillRow/CheckRow bodies the row-granular path
// replaced, verbatim, as the oracle of TestRowPathMatchesPerLine: one
// WriteGuest/ReadGuest (WritePhys/ReadPhys) per 64-byte line — each with its
// own translation, stripe decode and row-lock round trip — and a byte-wise
// compare.

// rowLines yields the attacker-visible addresses of one row's cache lines:
// within a row group, a bank's lines repeat every BanksPerSocket lines.
func rowLines(g geometry.Geometry, r RowRef, visit func(addr uint64) error) error {
	stride := uint64(g.BanksPerSocket()) * geometry.CacheLineSize
	lines := g.RowBytes / geometry.CacheLineSize
	for j := 0; j < lines; j++ {
		if err := visit(r.Addr + uint64(j)*stride); err != nil {
			return err
		}
	}
	return nil
}

func refFillRowVM(vm *core.VM, r RowRef, pat byte) error {
	g := vm.Hypervisor().Memory().Geometry()
	lineBuf := bytes.Repeat([]byte{pat}, geometry.CacheLineSize)
	return rowLines(g, r, func(addr uint64) error {
		return vm.WriteGuest(addr, lineBuf)
	})
}

func refCheckRowVM(vm *core.VM, r RowRef, pat byte) ([]Corruption, error) {
	g := vm.Hypervisor().Memory().Geometry()
	var out []Corruption
	buf := make([]byte, geometry.CacheLineSize)
	err := rowLines(g, r, func(addr uint64) error {
		if err := vm.ReadGuest(addr, buf); err != nil {
			return err
		}
		for i, b := range buf {
			if b != pat {
				out = append(out, Corruption{Addr: addr + uint64(i), Got: b})
			}
		}
		return nil
	})
	return out, err
}

func refFillRowPhys(mem *dram.Memory, r RowRef, pat byte) error {
	lineBuf := bytes.Repeat([]byte{pat}, geometry.CacheLineSize)
	return rowLines(mem.Geometry(), r, func(addr uint64) error {
		return mem.WritePhys(addr, lineBuf)
	})
}

func refCheckRowPhys(mem *dram.Memory, r RowRef, pat byte) ([]Corruption, error) {
	var out []Corruption
	buf := make([]byte, geometry.CacheLineSize)
	err := rowLines(mem.Geometry(), r, func(addr uint64) error {
		if err := mem.ReadPhys(addr, buf); err != nil {
			return err
		}
		for i, b := range buf {
			if b != pat {
				out = append(out, Corruption{Addr: addr + uint64(i), Got: b})
			}
		}
		return nil
	})
	return out, err
}
