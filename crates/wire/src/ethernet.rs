//! Ethernet II framing.

use crate::error::WireError;
use crate::mac::MacAddr;

/// Length of an Ethernet II header: dst(6) + src(6) + ethertype(2).
pub const HEADER_LEN: usize = 14;

/// The EtherType field of an Ethernet II frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800) — the only network protocol the simulator routes.
    Ipv4,
    /// ARP (0x0806) — parsed but not generated; present for pcap fidelity.
    Arp,
    /// Any other EtherType, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

/// A decoded Ethernet II frame: header fields plus owned payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Protocol of the payload.
    pub ethertype: EtherType,
    /// Payload bytes (an IPv4 packet when `ethertype == Ipv4`).
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    /// Build an IPv4 frame.
    pub fn ipv4(dst: MacAddr, src: MacAddr, payload: Vec<u8>) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype: EtherType::Ipv4,
            payload,
        }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&u16::from(self.ethertype).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse from wire bytes, copying the payload out of [`split`].
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let (dst, src, ethertype, payload) = split(data)?;
        Ok(EthernetFrame {
            dst,
            src,
            ethertype,
            payload: payload.to_vec(),
        })
    }
}

/// Split a frame into `(dst, src, ethertype, payload)` without copying:
/// the one place the header length is checked.
pub fn split(data: &[u8]) -> Result<(MacAddr, MacAddr, EtherType, &[u8]), WireError> {
    if data.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            layer: "ethernet",
            needed: HEADER_LEN,
            got: data.len(),
        });
    }
    let mut dst = [0u8; 6];
    let mut src = [0u8; 6];
    dst.copy_from_slice(&data[0..6]);
    src.copy_from_slice(&data[6..12]);
    let ethertype = u16::from_be_bytes([data[12], data[13]]).into();
    // Guarded: len >= HEADER_LEN checked on entry. lint: index-ok
    Ok((MacAddr(dst), MacAddr(src), ethertype, &data[HEADER_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = EthernetFrame::ipv4(
            MacAddr::from_host_id(1),
            MacAddr::from_host_id(2),
            vec![1, 2, 3, 4],
        );
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        let g = EthernetFrame::decode(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn truncated_header_rejected() {
        let err = EthernetFrame::decode(&[0u8; 13]).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                layer: "ethernet",
                ..
            }
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }

    #[test]
    fn empty_payload_is_fine() {
        let f = EthernetFrame::ipv4(MacAddr::ZERO, MacAddr::ZERO, vec![]);
        let g = EthernetFrame::decode(&f.encode()).unwrap();
        assert!(g.payload.is_empty());
    }
}
