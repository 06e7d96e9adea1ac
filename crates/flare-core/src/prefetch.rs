//! Look-ahead for a buffer walked one block at a time: a hint that asks the
//! cache for a slice's lines before the program touches them.
//!
//! A dense host sends its input one packet-sized block at a time and writes
//! each block's result back in place. With many hosts in one simulation,
//! each walking its own large buffer, the streams interleave finely enough
//! that the hardware prefetcher does not follow them, and every block's
//! copy stalls on lines that are not in cache. Naming the next block's
//! lines one block ahead hides that wait.
//!
//! A hint changes no value the program reads: a wrong or useless one costs
//! a little bandwidth, never a result. On `x86_64` it is `_mm_prefetch`;
//! on every other target both functions do nothing. This file holds the
//! only `unsafe` code under `crates/`.

/// Bytes of one cache line.
#[cfg(target_arch = "x86_64")]
const LINE: usize = 64;

/// The cache level a read hint fills: all of them (`T0`).
#[cfg(target_arch = "x86_64")]
const READ: i32 = core::arch::x86_64::_MM_HINT_T0;
/// The write hint: fetch the line for ownership into every level (`ET0`).
/// It is `prefetchw` where the build enables the `prfchw` target feature;
/// the default `x86_64` target does not, and gets `prefetcht0`.
#[cfg(target_arch = "x86_64")]
const WRITE: i32 = core::arch::x86_64::_MM_HINT_ET0;

/// Ask for `data`'s cache lines before it is read.
#[inline]
pub(crate) fn for_read<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    lines::<READ, T>(data);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

/// Ask for `data`'s cache lines, for writing, before it is overwritten.
#[inline]
pub(crate) fn for_write<T>(data: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    lines::<WRITE, T>(data);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

/// One `HINT` prefetch per cache line that `data` touches.
#[cfg(target_arch = "x86_64")]
#[inline]
fn lines<const HINT: i32, T>(data: &[T]) {
    let start = data.as_ptr().cast::<i8>();
    for offset in line_starts(start as usize, std::mem::size_of_val(data)) {
        // SAFETY: `line_starts` yields offsets below the slice's length,
        // so the pointer lies inside `data`. A prefetch never faults and
        // loads nothing into a register: it is invisible to the program
        // but for timing.
        unsafe { core::arch::x86_64::_mm_prefetch::<HINT>(start.add(offset)) };
    }
}

/// Offsets into `bytes` bytes at address `addr`, one in each cache line
/// they touch: 0, then where each following line starts. A range that
/// does not start on a line boundary gets its last line too.
#[cfg(target_arch = "x86_64")]
#[inline]
fn line_starts(addr: usize, bytes: usize) -> impl Iterator<Item = usize> {
    let next = move |&offset: &usize| Some((addr + offset) / LINE * LINE + LINE - addr);
    std::iter::successors(Some(0), next).take_while(move |&offset| offset < bytes)
}

#[cfg(test)]
mod tests {
    use super::{for_read, for_write};

    #[test]
    fn any_length_is_accepted() {
        // Empty, one element, and lengths that are no multiple of a
        // 64-byte line, at offsets that are not on one.
        let mut buf = vec![0u8; 197];
        for range in [0..0, 7..8, 0..1, 1..132, 0..197] {
            for_read(&buf[range.clone()]);
            for_write(&mut buf[range]);
        }
        let mut wide = [1.0f32; 19]; // 76 bytes
        for_read(&wide);
        for_write(&mut wide);
        for_read::<u64>(&[]);
        assert_eq!(buf, vec![0u8; 197], "a hint writes nothing");
        assert_eq!(wide, [1.0f32; 19]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_line_a_range_touches_is_named_once() {
        use super::{line_starts, LINE};
        for addr in [4096, 4096 + 16, 4096 + 63] {
            for bytes in [0, 1, 2, 63, 64, 65, 76, 1024, 1040] {
                let offsets: Vec<usize> = line_starts(addr, bytes).collect();
                let lines = if bytes == 0 {
                    0
                } else {
                    (addr + bytes - 1) / LINE - addr / LINE + 1
                };
                assert_eq!(offsets.len(), lines, "{bytes} B at {addr:#x}");
                for (i, &offset) in offsets.iter().enumerate() {
                    assert!(offset < bytes);
                    assert_eq!((addr + offset) / LINE, addr / LINE + i);
                }
            }
        }
    }
}
