//! Segmented memory for the emulated process.
//!
//! Memory is a small set of contiguous segments (text, rodata, bss,
//! stack). All multi-byte accesses are big-endian, as on traditional MIPS.
//! Out-of-segment or misaligned accesses return errors that the CPU
//! surfaces as faults (real malware that wanders off segfaults; so do we).
//!
//! Every access finds its segment through a 16-entry region table
//! indexed by `addr >> 28`: each 256 MiB region names the one segment
//! overlapping it, none, or "several" (only then is the segment list
//! scanned).

use std::fmt;

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// No segment maps this address range.
    Unmapped {
        /// Faulting address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
    /// Write attempted to a read-only segment.
    ReadOnly {
        /// Faulting address.
        addr: u32,
    },
    /// Address not aligned for the access size.
    Misaligned {
        /// Faulting address.
        addr: u32,
        /// Required alignment.
        align: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr, size } => {
                write!(f, "unmapped access of {size} bytes at {addr:#010x}")
            }
            MemError::ReadOnly { addr } => write!(f, "write to read-only memory at {addr:#010x}"),
            MemError::Misaligned { addr, align } => {
                write!(f, "misaligned {align}-byte access at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[derive(Debug, Clone)]
struct Segment {
    base: u32,
    data: Vec<u8>,
    writable: bool,
}

/// What overlaps one 256 MiB region of the address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Region {
    /// No segment: any non-empty access here is `Unmapped`.
    #[default]
    Unmapped,
    /// Exactly one segment, by index into `Memory::segments`.
    One(u32),
    /// Two or more segments: scan the list.
    Several,
}

/// Number of bits of an address below its region index.
const REGION_SHIFT: u32 = 28;

/// The emulated address space.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    segments: Vec<Segment>,
    /// Segment lookup table, one entry per `addr >> REGION_SHIFT`.
    regions: [Region; 16],
    /// Code-watch range `[watch_start, watch_end)`: successful writes
    /// overlapping it bump `code_version` so a predecoded execution
    /// cache (see `crate::block`) knows its view of `.text` is stale.
    /// Empty (`0..0`) by default, so unwatched memories pay only two
    /// compares per write.
    watch_start: u32,
    watch_end: u32,
    code_version: u64,
}

impl Memory {
    /// An empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Map a segment. Panics on overlap (loader bug, not guest behaviour).
    pub fn map(&mut self, base: u32, data: Vec<u8>, writable: bool) {
        let end = base as u64 + data.len() as u64;
        assert!(end <= u32::MAX as u64 + 1, "segment exceeds address space");
        for s in &self.segments {
            let s_end = s.base as u64 + s.data.len() as u64;
            assert!(
                end <= s.base as u64 || s_end <= base as u64,
                "overlapping segments at {base:#x}"
            );
        }
        if end > base as u64 {
            let first = (base >> REGION_SHIFT) as usize;
            let last = ((end - 1) >> REGION_SHIFT) as usize;
            let index = self.segments.len() as u32;
            for r in &mut self.regions[first..=last] {
                *r = match *r {
                    Region::Unmapped => Region::One(index),
                    _ => Region::Several,
                };
            }
        }
        self.segments.push(Segment {
            base,
            data,
            writable,
        });
    }

    /// Map a zero-filled writable segment.
    pub fn map_zeroed(&mut self, base: u32, len: u32, writable: bool) {
        self.map(base, vec![0; len as usize], writable);
    }

    /// Watch `[start, end)` for writes: any successful store overlapping
    /// the range bumps [`Memory::code_version`]. One range per address
    /// space (the guest's `.text`); re-watching replaces the old range.
    pub fn watch_code(&mut self, start: u32, end: u32) {
        self.watch_start = start;
        self.watch_end = end;
    }

    /// Generation counter for the watched code range. Starts at 0 and
    /// bumps on every successful write that overlaps the watch range.
    pub fn code_version(&self) -> u64 {
        self.code_version
    }

    #[inline]
    fn note_write(&mut self, addr: u32, size: u32) {
        if addr < self.watch_end && u64::from(addr) + u64::from(size) > u64::from(self.watch_start)
        {
            self.code_version += 1;
        }
    }

    /// The `(base, len, writable)` of the segment containing `addr`, if
    /// any. Used by the execution cache to find the text segment's span.
    pub fn segment_span(&self, addr: u32) -> Option<(u32, u32, bool)> {
        self.segments
            .iter()
            .find(|s| addr >= s.base && u64::from(addr) < s.base as u64 + s.data.len() as u64)
            .map(|s| (s.base, s.data.len() as u32, s.writable))
    }

    #[inline]
    fn seg(&self, addr: u32, size: u32) -> Result<(usize, usize), MemError> {
        // A non-empty access needs the segment holding `addr`, and only
        // a segment overlapping `addr`'s region can. Empty accesses may
        // sit one past a segment ending on a region boundary, so they
        // keep the scan.
        if size != 0 {
            match self.regions[(addr >> REGION_SHIFT) as usize] {
                Region::Unmapped => return Err(MemError::Unmapped { addr, size }),
                Region::One(i) => {
                    let s = &self.segments[i as usize];
                    let off = addr.wrapping_sub(s.base);
                    return if addr >= s.base && off as u64 + size as u64 <= s.data.len() as u64 {
                        Ok((i as usize, off as usize))
                    } else {
                        Err(MemError::Unmapped { addr, size })
                    };
                }
                Region::Several => {}
            }
        }
        self.scan(addr, size)
    }

    /// The first segment the access fits in, by list order.
    fn scan(&self, addr: u32, size: u32) -> Result<(usize, usize), MemError> {
        for (i, s) in self.segments.iter().enumerate() {
            let off = addr.wrapping_sub(s.base);
            if (off as u64) + size as u64 <= s.data.len() as u64 && addr >= s.base {
                return Ok((i, off as usize));
            }
        }
        Err(MemError::Unmapped { addr, size })
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let (i, off) = self.seg(addr, 1)?;
        Ok(self.segments[i].data[off])
    }

    /// Read a big-endian halfword (2-byte aligned).
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        if !addr.is_multiple_of(2) {
            return Err(MemError::Misaligned { addr, align: 2 });
        }
        let (i, off) = self.seg(addr, 2)?;
        let d = &self.segments[i].data;
        Ok(u16::from_be_bytes([d[off], d[off + 1]]))
    }

    /// Read a big-endian word (4-byte aligned).
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        let (i, off) = self.seg(addr, 4)?;
        let d = &self.segments[i].data;
        Ok(u32::from_be_bytes([
            d[off],
            d[off + 1],
            d[off + 2],
            d[off + 3],
        ]))
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), MemError> {
        let (i, off) = self.seg(addr, 1)?;
        if !self.segments[i].writable {
            return Err(MemError::ReadOnly { addr });
        }
        self.segments[i].data[off] = v;
        self.note_write(addr, 1);
        Ok(())
    }

    /// Write a big-endian halfword.
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), MemError> {
        if !addr.is_multiple_of(2) {
            return Err(MemError::Misaligned { addr, align: 2 });
        }
        let (i, off) = self.seg(addr, 2)?;
        if !self.segments[i].writable {
            return Err(MemError::ReadOnly { addr });
        }
        self.segments[i].data[off..off + 2].copy_from_slice(&v.to_be_bytes());
        self.note_write(addr, 2);
        Ok(())
    }

    /// Write a big-endian word.
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        let (i, off) = self.seg(addr, 4)?;
        if !self.segments[i].writable {
            return Err(MemError::ReadOnly { addr });
        }
        self.segments[i].data[off..off + 4].copy_from_slice(&v.to_be_bytes());
        self.note_write(addr, 4);
        Ok(())
    }

    /// Read `len` bytes into a vector.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemError> {
        let (i, off) = self.seg(addr, len)?;
        Ok(self.segments[i].data[off..off + len as usize].to_vec())
    }

    /// Read exactly `buf.len()` bytes into `buf` without allocating
    /// (syscall fast path for fixed-size guest structs).
    pub fn read_into(&self, addr: u32, buf: &mut [u8]) -> Result<(), MemError> {
        let (i, off) = self.seg(addr, buf.len() as u32)?;
        buf.copy_from_slice(&self.segments[i].data[off..off + buf.len()]);
        Ok(())
    }

    /// Borrow `len` bytes of guest memory without copying (syscall fast
    /// path for payloads that are immediately consumed, e.g. TCP sends).
    pub fn view(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        let (i, off) = self.seg(addr, len)?;
        Ok(&self.segments[i].data[off..off + len as usize])
    }

    /// Write a byte slice.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        let (i, off) = self.seg(addr, bytes.len() as u32)?;
        if !self.segments[i].writable {
            return Err(MemError::ReadOnly { addr });
        }
        self.segments[i].data[off..off + bytes.len()].copy_from_slice(bytes);
        self.note_write(addr, bytes.len() as u32);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new();
        m.map(0x1000, vec![0; 256], true);
        m.map(0x400000, (0..64).collect(), false);
        m
    }

    #[test]
    fn read_write_roundtrip_all_sizes() {
        let mut m = mem();
        m.write_u8(0x1000, 0xab).unwrap();
        m.write_u16(0x1002, 0xbeef).unwrap();
        m.write_u32(0x1004, 0xdeadbeef).unwrap();
        assert_eq!(m.read_u8(0x1000).unwrap(), 0xab);
        assert_eq!(m.read_u16(0x1002).unwrap(), 0xbeef);
        assert_eq!(m.read_u32(0x1004).unwrap(), 0xdeadbeef);
        // Big-endian byte order on the wire.
        assert_eq!(m.read_u8(0x1004).unwrap(), 0xde);
        assert_eq!(m.read_u8(0x1007).unwrap(), 0xef);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = mem();
        assert!(matches!(m.read_u8(0x2000), Err(MemError::Unmapped { .. })));
        // Straddling the end of a segment also faults.
        assert!(matches!(
            m.read_u32(0x10fe),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            m.read_bytes(0x10f0, 32),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn read_only_segment_rejects_writes() {
        let mut m = mem();
        assert_eq!(m.read_u8(0x400001).unwrap(), 1);
        assert!(matches!(
            m.write_u8(0x400000, 1),
            Err(MemError::ReadOnly { .. })
        ));
    }

    #[test]
    fn misaligned_faults() {
        let m = mem();
        assert!(matches!(
            m.read_u32(0x1001),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            m.read_u16(0x1001),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_panics() {
        let mut m = mem();
        m.map(0x10ff, vec![0; 4], true);
    }

    #[test]
    fn code_watch_versions_overlapping_writes_only() {
        let mut m = mem();
        assert_eq!(m.code_version(), 0);
        m.watch_code(0x1010, 0x1020);
        m.write_u8(0x1000, 1).unwrap(); // below range
        m.write_u32(0x1020, 2).unwrap(); // at end (exclusive)
        assert_eq!(m.code_version(), 0);
        m.write_u8(0x1010, 3).unwrap();
        assert_eq!(m.code_version(), 1);
        // A wide write straddling the range start counts once.
        m.write_bytes(0x100c, &[0; 8]).unwrap();
        assert_eq!(m.code_version(), 2);
        // Halfword ending exactly at range start does not overlap.
        m.write_u16(0x100e, 9).unwrap();
        assert_eq!(m.code_version(), 2);
        // Failed writes (read-only target) never bump.
        m.watch_code(0x400000, 0x400040);
        assert!(m.write_u8(0x400000, 1).is_err());
        assert_eq!(m.code_version(), 2);
    }

    #[test]
    fn segment_span_and_view() {
        let m = mem();
        assert_eq!(m.segment_span(0x400010), Some((0x400000, 64, false)));
        assert_eq!(m.segment_span(0x1000), Some((0x1000, 256, true)));
        assert_eq!(m.segment_span(0x2000), None);
        assert_eq!(m.view(0x400000, 4).unwrap(), &[0, 1, 2, 3]);
        assert!(m.view(0x400030, 64).is_err());
        let mut buf = [0u8; 4];
        m.read_into(0x400004, &mut buf).unwrap();
        assert_eq!(buf, [4, 5, 6, 7]);
        assert!(m.read_into(0x2000, &mut buf).is_err());
    }

    #[test]
    fn segment_crossing_a_region_boundary_is_one_segment_in_both() {
        let mut m = Memory::new();
        m.map(0x0fff_f000, (0..=255).cycle().take(0x2000).collect(), true);
        assert_eq!(m.regions[0], Region::One(0));
        assert_eq!(m.regions[1], Region::One(0));
        assert_eq!(m.regions[2], Region::Unmapped);
        // An access spanning the boundary resolves through its first
        // byte's region.
        assert_eq!(m.read_bytes(0x0fff_fffe, 4).unwrap(), vec![254, 255, 0, 1]);
        m.write_u32(0x1000_0000, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(0x1000_0000).unwrap(), 0xdead_beef);
        assert!(m.read_u8(0x1000_1000).is_err());
    }

    #[test]
    fn two_segments_in_one_region_fall_back_to_the_scan() {
        let mut m = Memory::new();
        m.map(0x1000, vec![1; 16], false);
        m.map(0x2000, vec![2; 16], true);
        assert_eq!(m.regions[0], Region::Several);
        assert_eq!(m.read_u8(0x1004).unwrap(), 1);
        assert_eq!(m.read_u8(0x2004).unwrap(), 2);
        assert!(m.write_u8(0x1004, 9).is_err());
        m.write_u8(0x2004, 9).unwrap();
        assert_eq!(m.read_u8(0x2004).unwrap(), 9);
        assert!(matches!(
            m.read_u8(0x1800),
            Err(MemError::Unmapped {
                addr: 0x1800,
                size: 1
            })
        ));
    }

    #[test]
    fn access_straddling_the_only_segments_end_is_unmapped() {
        let mut m = Memory::new();
        m.map(0x4000_0000, vec![0; 16], true);
        assert_eq!(m.regions[4], Region::One(0));
        assert_eq!(
            m.read_bytes(0x4000_000c, 8),
            Err(MemError::Unmapped {
                addr: 0x4000_000c,
                size: 8
            })
        );
        assert!(matches!(
            m.read_u32(0x4000_0010),
            Err(MemError::Unmapped { .. })
        ));
        assert!(matches!(
            m.read_u8(0x3fff_ffff),
            Err(MemError::Unmapped { .. })
        ));
        m.write_u32(0x4000_000c, 7).unwrap();
    }

    #[test]
    fn address_in_an_empty_region_is_unmapped() {
        let mut m = mem();
        assert_eq!(m.regions[7], Region::Unmapped);
        assert_eq!(
            m.read_u8(0x7000_0000),
            Err(MemError::Unmapped {
                addr: 0x7000_0000,
                size: 1
            })
        );
        assert!(matches!(
            m.write_u32(0x7fff_fffc, 1),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn default_memory_behaves_like_new() {
        let build = |mut m: Memory| {
            m.map(0x1000, vec![3; 64], true);
            m.map(0x7fff_0000, vec![4; 64], false);
            m
        };
        let (mut a, mut b) = (build(Memory::default()), build(Memory::new()));
        assert_eq!(a.regions, b.regions);
        for addr in [
            0,
            0x1000,
            0x103f,
            0x1040,
            0x7fff_0000,
            0x7fff_0040,
            0xffff_ffff,
        ] {
            assert_eq!(a.read_u8(addr), b.read_u8(addr));
            assert_eq!(a.write_u8(addr, 1), b.write_u8(addr, 1));
        }
    }

    #[test]
    fn region_table_agrees_with_the_scan() {
        // Adjacent segments meeting on a region boundary, a gap, a
        // segment spanning two regions, and a region shared by two.
        let mut m = Memory::new();
        m.map(0x0fff_fff0, vec![0; 16], false);
        m.map(0x1000_0000, vec![0; 32], true);
        m.map(0x2fff_fff8, vec![0; 24], true);
        m.map(0x3000_0100, vec![0; 8], false);
        let edges = [
            0x0fff_fff0u32,
            0x1000_0000,
            0x1000_0020,
            0x3000_0000,
            0x3000_0108,
        ];
        for edge in edges {
            for addr in edge.wrapping_sub(9)..=edge.wrapping_add(9) {
                for size in [0, 1, 2, 4, 8] {
                    assert_eq!(m.seg(addr, size), m.scan(addr, size), "{addr:#x}+{size}");
                }
            }
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = mem();
        m.write_bytes(0x1010, b"hello world").unwrap();
        assert_eq!(m.read_bytes(0x1010, 11).unwrap(), b"hello world");
    }
}
