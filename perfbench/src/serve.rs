//! The server process a run measures: the workload's likelihood surface
//! through the public `SystemBuilder` → `AlertService` → `SlaServer`
//! path that the `sla-server` binary wraps, with `sla-server`'s default
//! settings. (`sla-server` itself always builds a uniform codebook, so the
//! benchmark cannot use it to serve a skewed surface.)

use crate::workload::{Store, FLUSH_WINDOW, GROUP_BITS, STORE_SHARDS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::{FlushPolicy, StoreBackend, SystemBuilder};
use sla_grid::{Grid, ProbabilityMap};
use sla_server::{AlertService, ServerConfig, SlaServer};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Where and how to serve.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Unix socket path.
    pub socket: PathBuf,
    /// The likelihood surface, one probability per line, cell order.
    pub probs: PathBuf,
    /// The store backend.
    pub store: Store,
    /// Directory of the persistent store.
    pub dir: PathBuf,
}

/// Key-generation seed of every server. The keys belong to the
/// deployment, not to the workload: a restarted server derives the same
/// keys and so matches the ciphertexts it recovers, and set-up time does
/// not vary with how long a seed's prime search happens to take.
pub const KEY_SEED: u64 = 20_210_323;

/// Writes `probs` in the format [`read_probs`] reads.
pub fn write_probs(path: &Path, probs: &ProbabilityMap) -> std::io::Result<()> {
    let text: String = probs.raw().iter().map(|p| format!("{p}\n")).collect();
    std::fs::write(path, text)
}

/// Reads a surface written by [`write_probs`].
pub fn read_probs(path: &Path) -> Result<ProbabilityMap, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let probs = text
        .lines()
        .map(|l| {
            l.parse::<f64>()
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    ProbabilityMap::try_new(probs).map_err(|e| format!("{}: {e}", path.display()))
}

/// The store backend a workload's server runs over.
pub fn backend(store: Store, dir: &Path) -> StoreBackend {
    match store {
        Store::Persistent => StoreBackend::Persistent {
            dir: dir.to_path_buf(),
            flush: FlushPolicy::Every(FLUSH_WINDOW),
        },
        Store::Concurrent => StoreBackend::ConcurrentSharded {
            shards: STORE_SHARDS,
        },
    }
}

/// Builds the system and serves until a `shutdown` RPC drains it. Prints
/// `listening on <addr>` once the socket accepts connections.
pub fn serve(args: &ServeArgs) -> Result<(), String> {
    let probs = read_probs(&args.probs)?;
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    let system = SystemBuilder::new(Grid::chicago_downtown_32())
        .group_bits(GROUP_BITS)
        .store(backend(args.store, &args.dir))
        .build(&probs, &mut rng)
        .map_err(|e| format!("build: {e}"))?;
    let service = AlertService::new(system).map_err(|e| format!("service: {e}"))?;
    let config = ServerConfig {
        seed: KEY_SEED,
        ..ServerConfig::default()
    };
    let server =
        SlaServer::bind_unix(service, &args.socket, config).map_err(|e| format!("bind: {e}"))?;
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.serve().map_err(|e| format!("serve: {e}"))?;
    Ok(())
}
