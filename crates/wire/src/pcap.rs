//! Classic libpcap capture-file format (the `tcpdump` on-disk format).
//!
//! We write microsecond-resolution little-endian pcap with
//! LINKTYPE_ETHERNET, and read both byte orders. This is the interchange
//! format between the sandbox (which records all malware traffic, exactly
//! as CnCHunter does) and the analysis pipeline (which trusts only file
//! bytes, not simulator state).

use std::io::{self, Read, Write};

use malnet_telemetry::Telemetry;

use crate::error::WireError;
use crate::packet::{Packet, PacketRef};

/// Little-endian magic for microsecond timestamps.
pub const MAGIC_LE: u32 = 0xa1b2c3d4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Snap length we record: full packets, standard tcpdump default x4.
pub const SNAPLEN: u32 = 262_144;

/// One captured packet: a timestamp in microseconds plus frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Capture timestamp, microseconds since the epoch of the capture
    /// (the simulation uses its virtual clock origin).
    pub ts_micros: u64,
    /// Raw Ethernet frame bytes.
    pub frame: Vec<u8>,
}

impl PcapPacket {
    /// Parse the frame into a logical [`Packet`].
    pub fn parse(&self) -> Result<Packet, WireError> {
        Packet::decode_frame(&self.frame)
    }
}

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    inner: W,
    packets_written: u64,
    records_encoded: malnet_telemetry::Counter,
    bytes_encoded: malnet_telemetry::Counter,
}

/// Size of the pcap global header in bytes.
const GLOBAL_HEADER_LEN: u64 = 24;
/// Size of each per-record header in bytes.
const RECORD_HEADER_LEN: u64 = 16;

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(inner: W) -> io::Result<Self> {
        Self::with_telemetry(inner, &Telemetry::disabled())
    }

    /// Like [`PcapWriter::new`], but counting encoded records and bytes
    /// into `wire.pcap_records_encoded` / `wire.pcap_bytes_encoded`.
    pub fn with_telemetry(mut inner: W, tel: &Telemetry) -> io::Result<Self> {
        inner.write_all(&MAGIC_LE.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&SNAPLEN.to_le_bytes())?;
        inner.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        let bytes_encoded = tel.counter("wire.pcap_bytes_encoded");
        bytes_encoded.add(GLOBAL_HEADER_LEN);
        Ok(PcapWriter {
            inner,
            packets_written: 0,
            records_encoded: tel.counter("wire.pcap_records_encoded"),
            bytes_encoded,
        })
    }

    /// Append one captured frame.
    pub fn write_packet(&mut self, ts_micros: u64, frame: &[u8]) -> io::Result<()> {
        let secs = (ts_micros / 1_000_000) as u32;
        let micros = (ts_micros % 1_000_000) as u32;
        self.inner.write_all(&secs.to_le_bytes())?;
        self.inner.write_all(&micros.to_le_bytes())?;
        self.inner.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.inner.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.inner.write_all(frame)?;
        self.packets_written += 1;
        self.records_encoded.incr();
        self.bytes_encoded
            .add(RECORD_HEADER_LEN + frame.len() as u64);
        Ok(())
    }

    /// Serialize and append a logical packet.
    pub fn write(&mut self, ts_micros: u64, packet: &Packet) -> io::Result<()> {
        self.write_packet(ts_micros, &packet.encode_frame())
    }

    /// Number of packets written so far.
    pub fn packets_written(&self) -> u64 {
        self.packets_written
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// In-memory convenience: serialize a packet list to pcap bytes.
pub fn to_bytes(packets: &[(u64, Packet)]) -> Vec<u8> {
    // io::Write on Vec<u8> is infallible. lint: panic-ok
    let mut w = PcapWriter::new(Vec::new()).expect("vec write cannot fail");
    for (ts, p) in packets {
        // io::Write on Vec<u8> is infallible. lint: panic-ok
        w.write(*ts, p).expect("vec write cannot fail");
    }
    // io::Write on Vec<u8> is infallible. lint: panic-ok
    w.finish().expect("vec flush cannot fail")
}

/// Parse the 24-byte global header: `Ok(swapped)` for a supported
/// capture (either byte order, Ethernet link type).
fn global_header(hdr: &[u8; 24]) -> Result<bool, WireError> {
    let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let swapped = match magic {
        MAGIC_LE => false,
        m if m == MAGIC_LE.swap_bytes() => true,
        m => {
            return Err(WireError::Unsupported {
                layer: "pcap",
                what: "magic",
                value: u64::from(m),
            })
        }
    };
    let linktype = u32_at(hdr, 20, swapped);
    if linktype != LINKTYPE_ETHERNET {
        return Err(WireError::Unsupported {
            layer: "pcap",
            what: "linktype",
            value: u64::from(linktype),
        });
    }
    Ok(swapped)
}

/// Parse a 16-byte record header into `(ts_micros, caplen)`.
fn record_header(rec: &[u8; 16], swapped: bool) -> Result<(u64, usize), WireError> {
    let secs = u32_at(rec, 0, swapped);
    let micros = u32_at(rec, 4, swapped);
    let caplen = u32_at(rec, 8, swapped) as usize;
    if caplen > SNAPLEN as usize {
        return Err(WireError::Malformed {
            layer: "pcap",
            what: "caplen exceeds snaplen",
        });
    }
    Ok((u64::from(secs) * 1_000_000 + u64::from(micros), caplen))
}

/// The header word at byte `i` of a fixed-size header.
fn u32_at<const N: usize>(b: &[u8; N], i: usize, swapped: bool) -> u32 {
    // Fixed-size header arrays; callers pass i <= N - 4. lint: index-ok
    let v = [b[i], b[i + 1], b[i + 2], b[i + 3]];
    if swapped {
        u32::from_be_bytes(v)
    } else {
        u32::from_le_bytes(v)
    }
}

/// Streaming pcap reader, handling both byte orders.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
    /// Link type from the global header.
    pub linktype: u32,
}

impl<R: Read> PcapReader<R> {
    /// Open a capture, parsing the global header.
    pub fn new(mut inner: R) -> Result<Self, WireError> {
        let mut hdr = [0u8; 24];
        read_exact(&mut inner, &mut hdr)?;
        let swapped = global_header(&hdr)?;
        Ok(PcapReader {
            inner,
            swapped,
            linktype: LINKTYPE_ETHERNET,
        })
    }

    /// Read the next packet; `Ok(None)` at clean end-of-file.
    pub fn next_packet(&mut self) -> Result<Option<PcapPacket>, WireError> {
        let mut rec = [0u8; 16];
        match self.inner.read(&mut rec[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(_) => {
                return Err(WireError::Truncated {
                    layer: "pcap",
                    needed: 16,
                    got: 0,
                })
            }
        }
        read_exact(&mut self.inner, &mut rec[1..])?;
        let (ts_micros, caplen) = record_header(&rec, self.swapped)?;
        let mut frame = vec![0u8; caplen];
        read_exact(&mut self.inner, &mut frame)?;
        Ok(Some(PcapPacket { ts_micros, frame }))
    }

    /// Collect all remaining packets.
    pub fn read_all(mut self) -> Result<Vec<PcapPacket>, WireError> {
        let mut out = Vec::new();
        while let Some(p) = self.next_packet()? {
            out.push(p);
        }
        Ok(out)
    }
}

/// Zero-copy walk over the records of a capture held in memory; see
/// [`records`].
#[derive(Debug, Clone)]
pub struct Records<'a> {
    rest: &'a [u8],
    swapped: bool,
}

/// Walk a capture held in memory record by record, yielding
/// `(ts_micros, frame)` with the frame borrowed from `bytes`. A bad
/// global header is the error here; a record cut short or claiming more
/// than the snap length is yielded as one `Err`, after which the walk
/// ends.
pub fn records(bytes: &[u8]) -> Result<Records<'_>, WireError> {
    let (hdr, rest) = bytes
        .split_first_chunk::<24>()
        .ok_or(WireError::Truncated {
            layer: "pcap",
            needed: 24,
            got: bytes.len(),
        })?;
    let swapped = global_header(hdr)?;
    Ok(Records { rest, swapped })
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<(u64, &'a [u8]), WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let rest = std::mem::take(&mut self.rest);
        let Some((rec, body)) = rest.split_first_chunk::<16>() else {
            return Some(Err(WireError::Truncated {
                layer: "pcap",
                needed: 16,
                got: rest.len(),
            }));
        };
        let (ts, caplen) = match record_header(rec, self.swapped) {
            Ok(h) => h,
            Err(e) => return Some(Err(e)),
        };
        if body.len() < caplen {
            return Some(Err(WireError::Truncated {
                layer: "pcap",
                needed: caplen,
                got: body.len(),
            }));
        }
        let (frame, rest) = body.split_at(caplen);
        self.rest = rest;
        Some(Ok((ts, frame)))
    }
}

/// Parse a full capture held in memory into logical packets with
/// timestamps. Frames that fail to decode are skipped and counted in
/// `.1`; so is a cut-short tail, after every complete record before it
/// has been kept. Only a bad global header is an error.
pub fn parse_capture(bytes: &[u8]) -> Result<(Vec<(u64, Packet)>, usize), WireError> {
    let mut out = Vec::new();
    let mut skipped = 0usize;
    for rec in records(bytes)? {
        match rec.and_then(|(ts, frame)| Ok((ts, PacketRef::decode_frame(frame)?.to_packet()))) {
            Ok(p) => out.push(p),
            Err(_) => skipped += 1,
        }
    }
    Ok((out, skipped))
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|_| WireError::Truncated {
        layer: "pcap",
        needed: buf.len(),
        got: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn sample_packets() -> Vec<(u64, Packet)> {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        vec![
            (
                1_000_000,
                Packet::tcp(a, 1000, b, 23, 1, 0, TcpFlags::SYN, vec![]),
            ),
            (
                1_500_000,
                Packet::tcp(b, 23, a, 1000, 900, 2, TcpFlags::SYN_ACK, vec![]),
            ),
            (2_000_000, Packet::udp(a, 5555, b, 53, b"dns?".to_vec())),
        ]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let pkts = sample_packets();
        let bytes = to_bytes(&pkts);
        let (parsed, skipped) = parse_capture(&bytes).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(parsed, pkts);
    }

    #[test]
    fn global_header_is_valid_tcpdump_magic() {
        let bytes = to_bytes(&sample_packets());
        assert_eq!(&bytes[0..4], &MAGIC_LE.to_le_bytes());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
    }

    #[test]
    fn big_endian_captures_are_readable() {
        // Build a minimal big-endian capture by hand.
        let frame = sample_packets()[0].1.encode_frame();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_LE.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&SNAPLEN.to_be_bytes());
        bytes.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes()); // secs
        bytes.extend_from_slice(&7u32.to_be_bytes()); // micros
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&frame);
        let (parsed, _) = parse_capture(&bytes).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, 3_000_007);
    }

    #[test]
    fn truncated_record_reports_error() {
        let mut bytes = to_bytes(&sample_packets());
        bytes.truncate(bytes.len() - 3);
        let reader = PcapReader::new(&bytes[..]).unwrap();
        assert!(reader.read_all().is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = [0u8; 24];
        assert!(matches!(
            PcapReader::new(&bytes[..]).unwrap_err(),
            WireError::Unsupported { what: "magic", .. }
        ));
    }

    #[test]
    fn corrupt_frame_is_skipped_not_fatal() {
        let mut pkts = sample_packets();
        let bytes = to_bytes(&pkts);
        // Append a record with garbage frame bytes.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let _ = &mut w;
        let mut all = bytes.clone();
        let garbage = [0xffu8; 30];
        all.extend_from_slice(&9u32.to_le_bytes());
        all.extend_from_slice(&0u32.to_le_bytes());
        all.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        all.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        all.extend_from_slice(&garbage);
        let (parsed, skipped) = parse_capture(&all).unwrap();
        assert_eq!(parsed.len(), pkts.len());
        assert_eq!(skipped, 1);
        pkts.clear();
    }

    #[test]
    fn empty_capture_is_ok() {
        let bytes = to_bytes(&[]);
        let (parsed, skipped) = parse_capture(&bytes).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn packets_written_counter() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (ts, p) in sample_packets() {
            w.write(ts, &p).unwrap();
        }
        assert_eq!(w.packets_written(), 3);
    }
}
