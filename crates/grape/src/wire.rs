//! Byte-level wire protocol of the GRAPE-6 links.
//!
//! Everything that crosses the PCI bus or an LVDS link is a fixed-size
//! little-endian packet (the real interface used DMA of packed structures):
//!
//! * **i-particle upload** (40 B): fixed-point position (3×i64) + f32
//!   velocity (3×4) + id (4);
//! * **j-particle write-back** (72 B): fixed-point position (3×i64) + f32
//!   velocity/acceleration/jerk (9×4) + f32 mass + f64 time;
//! * **force readout** (56 B): f64 acceleration, jerk and potential (the
//!   accumulators are wide fixed point in hardware; their readout keeps full
//!   width).
//!
//! These sizes are the one packet-size table: the timing model
//! ([`crate::timing::TimingModel`], [`crate::parallel_models`]) charges and
//! `Grape6Engine::bytes_transferred` counts exactly these bytes.
//! Encode/decode round-trips are lossless at the hardware's own word
//! precision, which the tests pin down.

use crate::chip::HwIParticle;
#[cfg(test)]
use crate::format::FixedPointFormat;
use crate::predictor::JParticle;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use grape6_core::particle::ForceResult;
use grape6_core::vec3::Vec3;

/// Bytes on the wire for one i-particle.
pub const I_PACKET_BYTES: usize = 40;
/// Bytes on the wire for one j-particle write-back.
pub const J_PACKET_BYTES: usize = 72;
/// Bytes on the wire for one force result.
pub const F_PACKET_BYTES: usize = 56;
/// Bytes on the wire for one checksummed force result (payload + Fletcher-32
/// trailer). The fault-tolerant readout path uses these packets; a corrupted
/// packet is detected at the host and retransmitted.
pub const F_PACKET_CHECKED_BYTES: usize = F_PACKET_BYTES + 4;

/// Fletcher-32 checksum over a byte payload (the real GRAPE-6 host
/// interface protected DMA transfers with a simple additive check; Fletcher
/// additionally catches reordered words). Deterministic, endian-fixed.
// grape6-lint: hot
pub fn packet_checksum(payload: &[u8]) -> u32 {
    let mut s1: u32 = 0;
    let mut s2: u32 = 0;
    for chunk in payload.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_le_bytes([chunk[0], chunk[1]]) as u32
        } else {
            chunk[0] as u32
        };
        s1 = (s1 + word) % 65535;
        s2 = (s2 + s1) % 65535;
    }
    (s2 << 16) | s1
}

/// Encode a force-readout packet with a Fletcher-32 trailer.
// grape6-lint: hot
pub fn encode_force_checked(buf: &mut BytesMut, f: &ForceResult) {
    buf.reserve(F_PACKET_CHECKED_BYTES);
    let start = buf.len();
    encode_force(buf, f);
    let sum = packet_checksum(&buf[start..start + F_PACKET_BYTES]);
    buf.put_u32_le(sum);
}

/// Decode a checksummed force packet, verifying its trailer. On a checksum
/// mismatch the (corrupt) payload is consumed and an error returned — the
/// caller's recovery policy decides whether to retransmit.
// grape6-lint: hot
pub fn decode_force_checked(buf: &mut Bytes) -> Result<ForceResult, u32> {
    let expected = packet_checksum(&buf[..F_PACKET_BYTES]);
    let f = decode_force(buf);
    let sum = buf.get_u32_le();
    if sum == expected {
        Ok(f)
    } else {
        Err(sum ^ expected)
    }
}

/// Flip one bit of an encoded packet buffer (fault injection on a modeled
/// LVDS/PCI link). `bit` is taken modulo the buffer's bit length, so a
/// seeded fault plan can address any packet size safely.
// grape6-lint: hot
pub fn flip_packet_bit(packet: &mut [u8], bit: usize) {
    let nbits = packet.len() * 8;
    assert!(nbits > 0, "cannot flip a bit of an empty packet");
    let b = bit % nbits;
    packet[b / 8] ^= 1 << (b % 8);
}

// grape6-lint: hot
fn put_vec3_f32(buf: &mut BytesMut, v: Vec3) {
    buf.put_f32_le(v.x as f32);
    buf.put_f32_le(v.y as f32);
    buf.put_f32_le(v.z as f32);
}

// grape6-lint: hot
fn get_vec3_f32(buf: &mut Bytes) -> Vec3 {
    Vec3::new(buf.get_f32_le() as f64, buf.get_f32_le() as f64, buf.get_f32_le() as f64)
}

/// Encode an i-particle packet.
// grape6-lint: hot
pub fn encode_i_particle(buf: &mut BytesMut, ip: &HwIParticle, id: u32) {
    buf.reserve(I_PACKET_BYTES);
    for q in ip.qpos {
        buf.put_i64_le(q);
    }
    put_vec3_f32(buf, ip.vel);
    buf.put_u32_le(id);
}

/// Decode an i-particle packet. Returns the particle and its id.
// grape6-lint: hot
pub fn decode_i_particle(buf: &mut Bytes) -> (HwIParticle, u32) {
    let qpos = [buf.get_i64_le(), buf.get_i64_le(), buf.get_i64_le()];
    let vel = get_vec3_f32(buf);
    let id = buf.get_u32_le();
    (HwIParticle { qpos, vel }, id)
}

/// Encode a j-particle write-back packet.
// grape6-lint: hot
pub fn encode_j_particle(buf: &mut BytesMut, j: &JParticle) {
    buf.reserve(J_PACKET_BYTES);
    for q in j.qpos {
        buf.put_i64_le(q);
    }
    put_vec3_f32(buf, j.vel);
    put_vec3_f32(buf, j.acc);
    put_vec3_f32(buf, j.jerk);
    buf.put_f32_le(j.mass as f32);
    buf.put_f64_le(j.t0);
}

/// Decode a j-particle packet.
// grape6-lint: hot
pub fn decode_j_particle(buf: &mut Bytes) -> JParticle {
    let qpos = [buf.get_i64_le(), buf.get_i64_le(), buf.get_i64_le()];
    let vel = get_vec3_f32(buf);
    let acc = get_vec3_f32(buf);
    let jerk = get_vec3_f32(buf);
    let mass = buf.get_f32_le() as f64;
    let t0 = buf.get_f64_le();
    JParticle { qpos, vel, acc, jerk, mass, t0 }
}

/// Encode a force-readout packet at full accumulator width.
// grape6-lint: hot
pub fn encode_force(buf: &mut BytesMut, f: &ForceResult) {
    buf.reserve(F_PACKET_BYTES);
    buf.put_f64_le(f.acc.x);
    buf.put_f64_le(f.acc.y);
    buf.put_f64_le(f.acc.z);
    buf.put_f64_le(f.jerk.x);
    buf.put_f64_le(f.jerk.y);
    buf.put_f64_le(f.jerk.z);
    buf.put_f64_le(f.pot);
}

/// Decode a force-readout packet (no neighbour report on this wire).
// grape6-lint: hot
pub fn decode_force(buf: &mut Bytes) -> ForceResult {
    let acc = Vec3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    let jerk = Vec3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    let pot = buf.get_f64_le();
    ForceResult { acc, jerk, pot, nn: None }
}

/// Encode a whole block of j-particles (the per-blockstep write-back
/// stream). Returns the frozen buffer.
// grape6-lint: hot
pub fn encode_j_block(js: &[JParticle]) -> Bytes {
    let mut buf = BytesMut::with_capacity(js.len() * J_PACKET_BYTES);
    for j in js {
        encode_j_particle(&mut buf, j);
    }
    buf.freeze()
}

/// Decode a stream of j-particle packets.
// grape6-lint: hot
pub fn decode_j_block(mut buf: Bytes) -> Vec<JParticle> {
    assert_eq!(buf.len() % J_PACKET_BYTES, 0, "truncated j stream");
    let mut out = Vec::with_capacity(buf.len() / J_PACKET_BYTES);
    while buf.has_remaining() {
        out.push(decode_j_particle(&mut buf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Precision;

    fn sample_j() -> JParticle {
        JParticle::encode(
            &FixedPointFormat::default(),
            Precision::grape6(),
            Vec3::new(20.5, -3.25, 0.125),
            Vec3::new(0.1, 0.22, -0.03),
            Vec3::new(-2e-3, 1e-4, 0.0),
            Vec3::new(1e-6, 0.0, -1e-7),
            3.0e-9,
            12.625,
        )
    }

    #[test]
    fn i_particle_roundtrip_exact() {
        let fmt = FixedPointFormat::default();
        let ip = HwIParticle::encode(
            &fmt,
            Precision::grape6(),
            Vec3::new(20.123456789, -15.5, 0.001),
            Vec3::new(0.21, -0.05, 0.003),
        );
        let mut buf = BytesMut::new();
        encode_i_particle(&mut buf, &ip, 777);
        assert_eq!(buf.len(), I_PACKET_BYTES);
        let mut b = buf.freeze();
        let (back, id) = decode_i_particle(&mut b);
        assert_eq!(id, 777);
        assert_eq!(back.qpos, ip.qpos); // fixed point: bit exact
                                        // velocity already lives in the 24-bit pipeline word → f32 is lossless
        assert_eq!(back.vel, ip.vel);
    }

    #[test]
    fn j_particle_roundtrip_exact_at_hardware_precision() {
        let j = sample_j();
        let mut buf = BytesMut::new();
        encode_j_particle(&mut buf, &j);
        assert_eq!(buf.len(), J_PACKET_BYTES);
        let mut b = buf.freeze();
        let back = decode_j_particle(&mut b);
        assert_eq!(back.qpos, j.qpos);
        assert_eq!(back.vel, j.vel);
        assert_eq!(back.acc, j.acc);
        assert_eq!(back.jerk, j.jerk);
        assert_eq!(back.mass, j.mass); // 24-bit mantissa survives f32
        assert_eq!(back.t0, j.t0);
    }

    #[test]
    fn force_roundtrip() {
        let f = ForceResult {
            acc: Vec3::new(1.23456789e-4, -9.87e-6, 0.0),
            jerk: Vec3::new(1.5e-7, 0.0, -2.0e-8),
            pot: -4.25e-5,
            nn: None,
        };
        let mut buf = BytesMut::new();
        encode_force(&mut buf, &f);
        assert_eq!(buf.len(), F_PACKET_BYTES);
        let mut b = buf.freeze();
        let back = decode_force(&mut b);
        assert_eq!(back.acc, f.acc);
        assert_eq!(back.jerk, f.jerk);
        assert_eq!(back.pot, f.pot);
    }

    #[test]
    fn j_block_stream_roundtrip() {
        let js: Vec<JParticle> = (0..17)
            .map(|k| {
                let mut j = sample_j();
                j.t0 = k as f64;
                j.qpos[0] += k;
                j
            })
            .collect();
        let stream = encode_j_block(&js);
        assert_eq!(stream.len(), 17 * J_PACKET_BYTES);
        let back = decode_j_block(stream);
        assert_eq!(back.len(), 17);
        for (a, b) in js.iter().zip(&back) {
            assert_eq!(a.qpos, b.qpos);
            assert_eq!(a.t0, b.t0);
        }
    }

    #[test]
    fn checked_force_roundtrip_and_detection() {
        let f = ForceResult {
            acc: Vec3::new(1.23456789e-4, -9.87e-6, 0.0),
            jerk: Vec3::new(1.5e-7, 0.0, -2.0e-8),
            pot: -4.25e-5,
            nn: None,
        };
        let mut buf = BytesMut::new();
        encode_force_checked(&mut buf, &f);
        assert_eq!(buf.len(), F_PACKET_CHECKED_BYTES);
        // Clean packet decodes to the same bits.
        let back = decode_force_checked(&mut buf.clone().freeze()).expect("clean packet");
        assert_eq!(back.acc, f.acc);
        assert_eq!(back.jerk, f.jerk);
        assert_eq!(back.pot, f.pot);
        // Any single-bit flip in the payload is caught.
        for bit in [0usize, 7, 63, 200, F_PACKET_BYTES * 8 - 1] {
            let mut corrupt = buf.clone();
            flip_packet_bit(&mut corrupt[..F_PACKET_BYTES], bit);
            assert!(decode_force_checked(&mut corrupt.freeze()).is_err(), "bit {bit} undetected");
        }
    }

    #[test]
    fn checksum_is_order_sensitive() {
        // Fletcher-32 catches swapped words (a plain sum would not).
        let a = packet_checksum(&[1, 0, 2, 0]);
        let b = packet_checksum(&[2, 0, 1, 0]);
        assert_ne!(a, b);
    }

    #[test]
    fn flip_packet_bit_is_an_involution() {
        let mut p = [0u8; 8];
        flip_packet_bit(&mut p, 13);
        assert_eq!(p[1], 1 << 5);
        flip_packet_bit(&mut p, 13);
        assert_eq!(p, [0u8; 8]);
        // Out-of-range bits wrap.
        flip_packet_bit(&mut p, 64 + 3);
        assert_eq!(p[0], 1 << 3);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_stream_detected() {
        let stream = encode_j_block(&[sample_j()]);
        decode_j_block(stream.slice(0..J_PACKET_BYTES - 1));
    }

    #[test]
    fn timing_model_charges_the_encoded_bytes() {
        // One host writing back 1000 j-particles: the modeled write-back
        // moves exactly the bytes the encoder produces.
        let js: Vec<JParticle> = (0..1000).map(|_| sample_j()).collect();
        let stream = encode_j_block(&js);
        let m = crate::timing::TimingModel::single_host();
        let charged = m.block_step(1000, 100_000).jshare_intra;
        assert_eq!(charged, m.pci.transfer_time(stream.len() as u64));
    }
}
