//! Snapshot and diagnostic I/O (JSON; buffered, per the performance guide).

use crate::simulation::DiagnosticRow;
use grape6_core::particle::ParticleSystem;
use serde::{Deserialize, Serialize};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// A self-describing snapshot file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version.
    pub version: u32,
    /// Simulation time of the snapshot.
    pub t: f64,
    /// The particle system.
    pub system: ParticleSystem,
}

/// Current snapshot schema version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Write a snapshot to `path` as JSON.
pub fn save_snapshot(path: &Path, sys: &ParticleSystem) -> std::io::Result<()> {
    let snap = Snapshot { version: SNAPSHOT_VERSION, t: sys.t, system: sys.clone() };
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    serde_json::to_writer(&mut w, &snap)?;
    w.flush()
}

/// Read a snapshot back.
pub fn load_snapshot(path: &Path) -> std::io::Result<ParticleSystem> {
    let f = std::fs::File::open(path)?;
    let snap: Snapshot = serde_json::from_reader(BufReader::new(f))?;
    if snap.version != SNAPSHOT_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("snapshot version {} (expected {SNAPSHOT_VERSION})", snap.version),
        ));
    }
    Ok(snap.system)
}

/// Magic bytes of the binary snapshot format.
pub const BINARY_MAGIC: &[u8; 4] = b"G6SN";
/// Version of the binary snapshot format.
pub const BINARY_VERSION: u32 = 1;

/// Per-particle payload size in the binary format:
/// pos/vel/acc/jerk (12×f64) + mass/time/dt/pot (4×f64) + id (u64).
pub const BINARY_PARTICLE_BYTES: usize = 12 * 8 + 4 * 8 + 8;

/// Append particle `i`'s binary record — the [`BINARY_PARTICLE_BYTES`]-long
/// body layout shared by the `G6SN` snapshot and the chunked `G6CK` v2
/// checkpoint container: 17 little-endian words at fixed offsets (pos, vel,
/// acc, jerk as x, y, z; mass, time, dt, pot; id), moved as one array.
pub(crate) fn put_particle_record(buf: &mut impl bytes::BufMut, sys: &ParticleSystem, i: usize) {
    let (p, v, a, j) = (sys.pos[i], sys.vel[i], sys.acc[i], sys.jerk[i]);
    let vectors = [p.x, p.y, p.z, v.x, v.y, v.z, a.x, a.y, a.z, j.x, j.y, j.z];
    let scalars = [sys.mass[i], sys.time[i], sys.dt[i], sys.pot[i]];
    let words = vectors.into_iter().chain(scalars).map(f64::to_bits).chain([sys.id[i]]);
    let mut rec = [0u8; BINARY_PARTICLE_BYTES];
    for (slot, w) in rec.as_chunks_mut::<8>().0.iter_mut().zip(words) {
        *slot = w.to_le_bytes();
    }
    buf.put_slice(&rec);
}

/// Append the binary records of particles `range` to `buf` — one chunk
/// payload of the `G6CK` v2 body.
pub(crate) fn encode_particle_range(
    sys: &ParticleSystem,
    range: std::ops::Range<usize>,
    buf: &mut impl bytes::BufMut,
) {
    for i in range {
        put_particle_record(buf, sys, i);
    }
}

/// Decode one binary particle record (the layout of
/// [`put_particle_record`]) onto `sys`.
pub(crate) fn decode_particle_record(rec: &[u8; BINARY_PARTICLE_BYTES], sys: &mut ParticleSystem) {
    let word = |k: usize| u64::from_le_bytes(rec[8 * k..8 * k + 8].try_into().expect("8 bytes"));
    let f = |k: usize| f64::from_bits(word(k));
    let v = |k: usize| grape6_core::vec3::Vec3::new(f(k), f(k + 1), f(k + 2));
    let i = sys.push_with_id(v(0), v(3), f(12), word(16));
    sys.acc[i] = v(6);
    sys.jerk[i] = v(9);
    sys.time[i] = f(13);
    sys.dt[i] = f(14);
    sys.pot[i] = f(15);
}

/// Decode `body`, whole records end to end, onto `sys`.
pub(crate) fn decode_particle_records(body: &[u8], sys: &mut ParticleSystem) {
    let (recs, rest) = body.as_chunks::<BINARY_PARTICLE_BYTES>();
    debug_assert!(rest.is_empty(), "{} bytes of a partial record", rest.len());
    for rec in recs {
        decode_particle_record(rec, sys);
    }
}

/// Serialize a system to the compact binary snapshot format (lossless f64;
/// ~136 B/particle vs several hundred for JSON — the difference matters at
/// the paper's 1.8 M particles).
pub fn encode_binary_snapshot(sys: &ParticleSystem) -> bytes::Bytes {
    use bytes::BufMut;
    let mut buf = bytes::BytesMut::with_capacity(48 + sys.len() * BINARY_PARTICLE_BYTES);
    buf.put_slice(BINARY_MAGIC);
    buf.put_u32_le(BINARY_VERSION);
    buf.put_u64_le(sys.len() as u64);
    buf.put_f64_le(sys.t);
    buf.put_f64_le(sys.softening);
    buf.put_f64_le(sys.central_mass);
    for i in 0..sys.len() {
        put_particle_record(&mut buf, sys, i);
    }
    buf.freeze()
}

/// Deserialize a binary snapshot.
pub fn decode_binary_snapshot(mut buf: bytes::Bytes) -> std::io::Result<ParticleSystem> {
    use bytes::Buf;
    let err = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    if buf.len() < 40 {
        return Err(err("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != BINARY_MAGIC {
        return Err(err("bad magic"));
    }
    let version = buf.get_u32_le();
    if version != BINARY_VERSION {
        return Err(err(&format!("unsupported binary version {version}")));
    }
    let n = buf.get_u64_le() as usize;
    // Divide, never multiply: a hostile `n` must not wrap past the check.
    if n > (buf.len() - 24) / BINARY_PARTICLE_BYTES {
        return Err(err("truncated body"));
    }
    let t = buf.get_f64_le();
    let softening = buf.get_f64_le();
    let central_mass = buf.get_f64_le();
    let mut sys = ParticleSystem::new(softening, central_mass);
    sys.t = t;
    sys.reserve(n);
    decode_particle_records(&buf[..n * BINARY_PARTICLE_BYTES], &mut sys);
    Ok(sys)
}

/// Write a binary snapshot to `path`.
pub fn save_binary_snapshot(path: &Path, sys: &ParticleSystem) -> std::io::Result<()> {
    std::fs::write(path, encode_binary_snapshot(sys))
}

/// Read a binary snapshot from `path`.
pub fn load_binary_snapshot(path: &Path) -> std::io::Result<ParticleSystem> {
    let data = std::fs::read(path)?;
    decode_binary_snapshot(bytes::Bytes::from(data))
}

/// Save in a format chosen by extension: `.g6sn` → binary, anything else →
/// JSON.
pub fn save_auto(path: &Path, sys: &ParticleSystem) -> std::io::Result<()> {
    if path.extension().is_some_and(|e| e == "g6sn") {
        save_binary_snapshot(path, sys)
    } else {
        save_snapshot(path, sys)
    }
}

/// Load either format, sniffing the binary magic.
pub fn load_auto(path: &Path) -> std::io::Result<ParticleSystem> {
    let data = std::fs::read(path)?;
    if data.len() >= 4 && &data[..4] == BINARY_MAGIC {
        decode_binary_snapshot(bytes::Bytes::from(data))
    } else {
        let snap: Snapshot = serde_json::from_slice(&data)?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("snapshot version {} (expected {SNAPSHOT_VERSION})", snap.version),
            ));
        }
        Ok(snap.system)
    }
}

/// Write the diagnostic time series as CSV (one row per record).
pub fn save_diagnostics_csv(path: &Path, rows: &[DiagnosticRow]) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    writeln!(w, "t,energy_error,l_error,block_steps,particle_steps,interactions,mean_block")?;
    for r in rows {
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            r.t,
            r.energy_error,
            r.l_error,
            r.block_steps,
            r.particle_steps,
            r.interactions,
            r.mean_block
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::vec3::Vec3;

    fn sample_system() -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.008, 1.0);
        sys.push(Vec3::new(20.0, 0.0, 0.0), Vec3::new(0.0, 0.22, 0.0), 3e-5);
        sys.push(Vec3::new(-30.0, 0.0, 0.0), Vec3::new(0.0, -0.18, 0.0), 3e-5);
        sys.t = 12.5;
        sys.time = vec![12.5, 12.5];
        sys
    }

    #[test]
    fn snapshot_roundtrip() {
        let dir = std::env::temp_dir().join("grape6_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let sys = sample_system();
        save_snapshot(&path, &sys).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.pos, sys.pos);
        assert_eq!(back.vel, sys.vel);
        assert_eq!(back.t, 12.5);
        assert_eq!(back.softening, 0.008);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_rejected() {
        let dir = std::env::temp_dir().join("grape6_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_version.json");
        let snap = Snapshot { version: 999, t: 0.0, system: sample_system() };
        std::fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        assert!(load_snapshot(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn diagnostics_csv_has_header_and_rows() {
        let dir = std::env::temp_dir().join("grape6_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("diag.csv");
        let rows = vec![DiagnosticRow {
            t: 1.0,
            energy_error: 1e-9,
            l_error: 1e-12,
            block_steps: 10,
            particle_steps: 40,
            interactions: 4000,
            mean_block: 4.0,
        }];
        save_diagnostics_csv(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("t,energy_error"));
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(load_snapshot(Path::new("/nonexistent/grape6.json")).is_err());
    }

    #[test]
    fn binary_snapshot_roundtrip_is_lossless() {
        let mut sys = sample_system();
        sys.acc[0] = Vec3::new(1e-3, -2e-4, 5e-5);
        sys.jerk[1] = Vec3::new(-1e-6, 0.0, 3e-7);
        sys.dt = vec![0.125, 0.25];
        sys.pot = vec![-1.5e-6, -2.5e-6];
        sys.id = vec![42, 7];
        let bytes = encode_binary_snapshot(&sys);
        assert_eq!(bytes.len(), 40 + 2 * BINARY_PARTICLE_BYTES);
        let back = decode_binary_snapshot(bytes).unwrap();
        assert_eq!(back.pos, sys.pos);
        assert_eq!(back.vel, sys.vel);
        assert_eq!(back.acc, sys.acc);
        assert_eq!(back.jerk, sys.jerk);
        assert_eq!(back.mass, sys.mass);
        assert_eq!(back.time, sys.time);
        assert_eq!(back.dt, sys.dt);
        assert_eq!(back.pot, sys.pot);
        assert_eq!(back.id, sys.id);
        assert_eq!(back.t, sys.t);
        assert_eq!(back.softening, sys.softening);
        assert_eq!(back.central_mass, sys.central_mass);
    }

    #[test]
    fn binary_snapshot_file_roundtrip() {
        let dir = std::env::temp_dir().join("grape6_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.g6sn");
        let sys = sample_system();
        save_binary_snapshot(&path, &sys).unwrap();
        let back = load_binary_snapshot(&path).unwrap();
        assert_eq!(back.pos, sys.pos);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_decoder_rejects_garbage() {
        assert!(decode_binary_snapshot(bytes::Bytes::from_static(b"nope")).is_err());
        assert!(decode_binary_snapshot(bytes::Bytes::from_static(
            b"G6SNxxxxyyyyzzzzwwwwvvvvuuuuttttssss"
        ))
        .is_err());
        // Truncated body: claim 10 particles, provide none.
        let mut sys = sample_system();
        sys.pos.truncate(0);
        let mut good = encode_binary_snapshot(&sample_system()).to_vec();
        good.truncate(40);
        assert!(decode_binary_snapshot(bytes::Bytes::from(good)).is_err());
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        // Realistic state: full-precision doubles, which JSON prints at up
        // to 17 significant digits each.
        let sys = {
            let mut s = ParticleSystem::new(0.008, 1.0);
            let mut x = 0.123456789f64;
            for _ in 0..100 {
                x = (x * 997.13).fract();
                let y = (x * 31.7).fract();
                s.push(
                    Vec3::new(15.0 + 20.0 * x, 35.0 * (y - 0.5), 0.1 * (x - 0.5)),
                    Vec3::new(0.2 * (y - 0.5), 0.2 * (x - 0.5), 0.01 * y),
                    1e-10 * (1.0 + x),
                );
            }
            s
        };
        let bin = encode_binary_snapshot(&sys).len();
        let json = serde_json::to_string(&Snapshot {
            version: SNAPSHOT_VERSION,
            t: sys.t,
            system: sys.clone(),
        })
        .unwrap()
        .len();
        assert!(bin * 7 < json * 5, "binary {bin} not well below json {json}");
    }
}
