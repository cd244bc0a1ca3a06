//! Wire formats for the probe packets the simulator exchanges.
//!
//! The simulator could pass Rust structs around directly, but encoding probes
//! and responses through real ICMP wire formats keeps the measurement tools
//! honest: the prober only learns what a real prober could parse out of the
//! bytes on the wire (response TTLs, quoted headers in Time Exceeded
//! messages, checksum-carried flow identifiers — the Paris trick).

use crate::addr::Addr;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// ICMP message types we model.
pub const ICMP_ECHO_REPLY: u8 = 0;
/// ICMP Destination Unreachable.
pub const ICMP_DEST_UNREACH: u8 = 3;
/// ICMP Echo Request.
pub const ICMP_ECHO_REQUEST: u8 = 8;
/// ICMP Time Exceeded (TTL expired in transit).
pub const ICMP_TIME_EXCEEDED: u8 = 11;

/// Minimal IPv4 header as carried by the simulator (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Time to live.
    pub ttl: u8,
    /// Protocol (1 = ICMP; the only protocol the simulator forwards).
    pub protocol: u8,
    /// IP identification field (part of some routers' hash input).
    pub ident: u16,
}

/// Fixed size of our serialized IPv4 header (standard 20 bytes, no options).
pub const IPV4_HEADER_LEN: usize = 20;
/// Fixed size of an ICMP echo header.
pub const ICMP_ECHO_HEADER_LEN: usize = 8;
/// Size of a serialized echo message: the header plus the two tweak bytes.
pub(crate) const ICMP_ECHO_LEN: usize = ICMP_ECHO_HEADER_LEN + 2;
/// Size of a serialized ICMP error: its own 8-byte header, the quoted IPv4
/// header and the first 8 bytes of the quoted echo.
pub(crate) const ICMP_ERROR_LEN: usize = 8 + IPV4_HEADER_LEN + ICMP_ECHO_HEADER_LEN;

impl Ipv4Header {
    /// The header's wire bytes (standard layout, version/IHL fixed, no
    /// options), checksum included.
    pub(crate) fn to_bytes(self) -> [u8; IPV4_HEADER_LEN] {
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5; DSCP/ECN and total length stay 0
        b[4..6].copy_from_slice(&self.ident.to_be_bytes());
        // Flags/fragment offset stay 0.
        b[8] = self.ttl;
        b[9] = self.protocol;
        b[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        b[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        let sum = internet_checksum(&b);
        b[10..12].copy_from_slice(&sum.to_be_bytes());
        b
    }

    /// Serialize into `buf` (standard layout, version/IHL fixed, no options).
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bytes());
    }

    /// Parse a header from the front of `buf`, validating the checksum.
    pub fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if internet_checksum(&buf[..IPV4_HEADER_LEN]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let vihl = buf.get_u8();
        if vihl != 0x45 {
            return Err(WireError::BadVersion(vihl));
        }
        buf.advance(1); // DSCP/ECN
        buf.advance(2); // total length
        let ident = buf.get_u16();
        buf.advance(2); // flags/frag
        let ttl = buf.get_u8();
        let protocol = buf.get_u8();
        buf.advance(2); // checksum (validated above)
        let src = Addr(buf.get_u32());
        let dst = Addr(buf.get_u32());
        Ok(Ipv4Header {
            src,
            dst,
            ttl,
            protocol,
            ident,
        })
    }
}

/// An ICMP echo request/reply header.
///
/// Paris traceroute keeps the ICMP *checksum* constant across probes so that
/// per-flow load balancers (which hash the first four bytes of the transport
/// header) see a stable flow; it varies the checksum deliberately to explore
/// siblings. We model the checksum as derived from id/seq/payload exactly as
/// on the wire, so the prober must do the same bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpEcho {
    /// Echo identifier (ties replies to the probing process).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
    /// Two payload bytes the prober tunes to force a chosen checksum.
    pub tweak: u16,
}

impl IcmpEcho {
    /// The ICMP checksum this echo message will carry on the wire.
    ///
    /// This is the "flow identifier" a per-flow load balancer observes.
    pub fn wire_checksum(&self, icmp_type: u8) -> u16 {
        let b = self.to_bytes(icmp_type);
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Choose `tweak` so that the encoded checksum equals `target`.
    ///
    /// The internet checksum is the one's-complement sum, so solving for a
    /// payload word that produces a target checksum is exact arithmetic.
    ///
    /// # Panics
    /// Panics if `target == 0xffff`: a checksum of `0xffff` would require the
    /// one's-complement sum to be `+0`, which a non-zero message never
    /// produces (RFC 1071 arithmetic yields `-0` = `0xffff` instead, which
    /// folds to checksum `0x0000`). Flow-label generators must stay within
    /// `0x0000..=0xfffe`.
    pub fn with_checksum(ident: u16, seq: u16, target: u16) -> IcmpEcho {
        assert!(
            target != 0xffff,
            "checksum 0xffff is unrepresentable; use labels in 0..=0xfffe"
        );
        // checksum = !(type/code + ident + seq + tweak)  (one's complement sum)
        // We need tweak = !target - (type/code word) - ident - seq  in
        // one's-complement arithmetic. type=8, code=0 => word 0x0800.
        let want = !target;
        let fixed = ones_add(ones_add(0x0800, ident), seq);
        let tweak = ones_sub(want, fixed);
        let echo = IcmpEcho { ident, seq, tweak };
        debug_assert_eq!(echo.wire_checksum(ICMP_ECHO_REQUEST), target);
        echo
    }

    /// The message's wire bytes with the given type byte (code 0),
    /// checksum included.
    pub(crate) fn to_bytes(self, icmp_type: u8) -> [u8; ICMP_ECHO_LEN] {
        let mut b = [0u8; ICMP_ECHO_LEN];
        b[0] = icmp_type;
        b[4..6].copy_from_slice(&self.ident.to_be_bytes());
        b[6..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..10].copy_from_slice(&self.tweak.to_be_bytes());
        let sum = internet_checksum(&b);
        b[2..4].copy_from_slice(&sum.to_be_bytes());
        b
    }

    /// Serialize as an echo request.
    pub fn encode_request(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bytes(ICMP_ECHO_REQUEST));
    }

    /// Serialize as an echo reply.
    pub fn encode_reply(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bytes(ICMP_ECHO_REPLY));
    }

    /// Parse an echo message; returns `(icmp_type, echo)`.
    pub fn decode(buf: &mut Bytes) -> Result<(u8, IcmpEcho), WireError> {
        if buf.remaining() < ICMP_ECHO_LEN {
            return Err(WireError::Truncated);
        }
        if internet_checksum(&buf[..ICMP_ECHO_LEN]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let icmp_type = buf.get_u8();
        buf.advance(1); // code
        buf.advance(2); // checksum
        let ident = buf.get_u16();
        let seq = buf.get_u16();
        let tweak = buf.get_u16();
        Ok((icmp_type, IcmpEcho { ident, seq, tweak }))
    }
}

/// ICMP error message (Time Exceeded / Destination Unreachable) quoting the
/// offending packet's IP header plus the first 8 bytes of its payload, as
/// RFC 792 requires. Traceroute relies on the quote to match responses to
/// probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpError {
    /// ICMP type: `ICMP_TIME_EXCEEDED` or `ICMP_DEST_UNREACH`.
    pub icmp_type: u8,
    /// Quoted IPv4 header of the probe that triggered the error.
    pub quoted: Ipv4Header,
    /// Quoted first 8 bytes of the probe's ICMP payload.
    pub quoted_echo: IcmpEcho,
    /// The quoted echo's type byte.
    pub quoted_type: u8,
}

impl IcmpError {
    /// The message's wire bytes: type/code/checksum/unused + quoted IP
    /// header + the quoted echo's first 8 bytes, checksum included.
    pub(crate) fn to_bytes(&self) -> [u8; ICMP_ERROR_LEN] {
        let mut b = [0u8; ICMP_ERROR_LEN];
        b[0] = self.icmp_type; // code, checksum and unused stay 0 for now
        b[8..8 + IPV4_HEADER_LEN].copy_from_slice(&self.quoted.to_bytes());
        // First 8 bytes of the quoted ICMP message (header only, minus tweak).
        b[8 + IPV4_HEADER_LEN..]
            .copy_from_slice(&self.quoted_echo.to_bytes(self.quoted_type)[..ICMP_ECHO_HEADER_LEN]);
        let sum = internet_checksum(&b);
        b[2..4].copy_from_slice(&sum.to_be_bytes());
        b
    }

    /// Serialize: type/code/checksum/unused + quoted IP header + 8 bytes.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bytes());
    }

    /// Parse an ICMP error message and its quoted probe.
    pub fn decode(buf: &mut Bytes) -> Result<IcmpError, WireError> {
        if buf.remaining() < ICMP_ERROR_LEN {
            return Err(WireError::Truncated);
        }
        if internet_checksum(&buf[..ICMP_ERROR_LEN]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let icmp_type = buf.get_u8();
        buf.advance(1); // code
        buf.advance(2); // checksum
        buf.advance(4); // unused
        let mut quoted_buf = buf.clone();
        let quoted = Ipv4Header::decode(&mut quoted_buf)?;
        buf.advance(IPV4_HEADER_LEN);
        let quoted_type = buf[0];
        let ident = u16::from_be_bytes([buf[4], buf[5]]);
        let seq = u16::from_be_bytes([buf[6], buf[7]]);
        buf.advance(ICMP_ECHO_HEADER_LEN);
        Ok(IcmpError {
            icmp_type,
            quoted,
            quoted_echo: IcmpEcho {
                ident,
                seq,
                tweak: 0,
            },
            quoted_type,
        })
    }
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes for the claimed structure.
    Truncated,
    /// Checksum mismatch.
    BadChecksum,
    /// Unsupported IP version / header length byte.
    BadVersion(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadChecksum => write!(f, "bad checksum"),
            WireError::BadVersion(b) => write!(f, "unsupported version/IHL byte {b:#x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// RFC 1071 internet checksum over `data` (16-bit one's-complement sum).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// One's-complement 16-bit addition.
fn ones_add(a: u16, b: u16) -> u16 {
    let s = a as u32 + b as u32;
    ((s & 0xffff) + (s >> 16)) as u16
}

/// One's-complement 16-bit subtraction.
fn ones_sub(a: u16, b: u16) -> u16 {
    ones_add(a, !b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Ipv4Header {
        Ipv4Header {
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(192, 0, 2, 33),
            ttl: 7,
            protocol: 1,
            ident: 0xBEEF,
        }
    }

    #[test]
    fn ipv4_header_roundtrip() {
        let h = header();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let mut bytes = buf.freeze();
        let parsed = Ipv4Header::decode(&mut bytes).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn ipv4_header_detects_corruption() {
        let mut buf = BytesMut::new();
        header().encode(&mut buf);
        buf[8] ^= 0xff; // flip the TTL byte
        let mut bytes = buf.freeze();
        assert_eq!(Ipv4Header::decode(&mut bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn echo_roundtrip() {
        let e = IcmpEcho {
            ident: 42,
            seq: 7,
            tweak: 0x1234,
        };
        let mut buf = BytesMut::new();
        e.encode_request(&mut buf);
        let (t, parsed) = IcmpEcho::decode(&mut buf.freeze()).unwrap();
        assert_eq!(t, ICMP_ECHO_REQUEST);
        assert_eq!(parsed, e);
    }

    #[test]
    fn echo_checksum_targeting_is_exact() {
        // The Paris trick: for any target checksum there is a payload tweak
        // that produces it.
        for target in [0x0000u16, 0x0001, 0x7fff, 0x8000, 0xfffe, 0xABCD] {
            let e = IcmpEcho::with_checksum(9, 1, target);
            assert_eq!(
                e.wire_checksum(ICMP_ECHO_REQUEST),
                target,
                "target {target:#x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unrepresentable")]
    fn echo_checksum_all_ones_rejected() {
        let _ = IcmpEcho::with_checksum(9, 1, 0xffff);
    }

    #[test]
    fn icmp_error_roundtrip() {
        let err = IcmpError {
            icmp_type: ICMP_TIME_EXCEEDED,
            quoted: header(),
            quoted_echo: IcmpEcho {
                ident: 3,
                seq: 9,
                tweak: 0,
            },
            quoted_type: ICMP_ECHO_REQUEST,
        };
        let mut buf = BytesMut::new();
        err.encode(&mut buf);
        let parsed = IcmpError::decode(&mut buf.freeze()).unwrap();
        assert_eq!(parsed.icmp_type, ICMP_TIME_EXCEEDED);
        assert_eq!(parsed.quoted, err.quoted);
        assert_eq!(parsed.quoted_echo.ident, 3);
        assert_eq!(parsed.quoted_echo.seq, 9);
    }

    #[test]
    fn checksum_rfc1071_examples() {
        // Sum of zero data is 0xffff.
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xffff);
        // Validating data that carries its own checksum yields 0.
        let data = [0x45u8, 0x00, 0x00, 0x14];
        let sum = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&sum.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn checksum_odd_length() {
        let a = internet_checksum(&[1, 2, 3]);
        let b = internet_checksum(&[1, 2, 3, 0]);
        assert_eq!(a, b);
    }
}
