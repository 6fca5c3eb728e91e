//! The crate's only foreign calls: POSIX `signal(2)` for the drain flag
//! and `setsockopt(2)` for TCP keepalive.
//!
//! The workspace bans `unsafe` everywhere (`#![forbid(unsafe_code)]` in
//! every other crate root); this crate relaxes that to `#![deny]` solely
//! for this module, because neither call is reachable without FFI and the
//! workspace vendors no `libc`/`signal-hook`/`socket2` crate to delegate
//! to. The exemption is as small as it can be made: two `extern "C"`
//! declarations from the platform libc the binary already links against,
//! each wrapped in one safe function.
#![allow(unsafe_code)]

extern "C" {
    // POSIX signal(2). The return value (previous handler) is unused.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    // POSIX setsockopt(2); `socklen_t` is a 32-bit unsigned integer.
    #[cfg(target_os = "linux")]
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// Install `handler` for `signum`.
pub fn install_signal_handler(signum: i32, handler: extern "C" fn(i32)) {
    // SAFETY: `signal` is the libc the binary links against; the handler
    // is a plain `extern "C" fn(i32)` (the drain flag's handler only
    // stores an AtomicBool, which is async-signal-safe). No data is passed
    // across the boundary.
    unsafe {
        signal(signum, handler);
    }
}

/// Turn on keepalive for the TCP socket `fd`: the first probe after
/// `idle_s` seconds of silence, then one every `interval_s` seconds, and
/// the connection fails after `count` unanswered probes.
#[cfg(target_os = "linux")]
pub fn tcp_keepalive(
    fd: std::os::fd::RawFd,
    idle_s: i32,
    interval_s: i32,
    count: i32,
) -> std::io::Result<()> {
    // Linux ABI values.
    const SOL_SOCKET: i32 = 1;
    const SO_KEEPALIVE: i32 = 9;
    const IPPROTO_TCP: i32 = 6;
    const TCP_KEEPIDLE: i32 = 4;
    const TCP_KEEPINTVL: i32 = 5;
    const TCP_KEEPCNT: i32 = 6;
    for (level, name, value) in [
        (SOL_SOCKET, SO_KEEPALIVE, 1),
        (IPPROTO_TCP, TCP_KEEPIDLE, idle_s),
        (IPPROTO_TCP, TCP_KEEPINTVL, interval_s),
        (IPPROTO_TCP, TCP_KEEPCNT, count),
    ] {
        // SAFETY: `value` lives on this stack frame for the whole call and
        // the length passed is exactly its size; the kernel only reads it.
        // A bad `fd` is reported as an error return, not undefined
        // behaviour.
        let rc = unsafe { setsockopt(fd, level, name, &value, std::mem::size_of::<i32>() as u32) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(())
}
