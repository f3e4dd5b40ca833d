//! Workloads, seeded request streams, and the stacks they run against.

use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::Arc;
use w5_net::{
    HttpClient, Method, Pipeline, PipelineConfig, Request, Server, ServerConfig, ServerHandle,
};
use w5_platform::{Gateway, Platform, W5App};
use w5_sim::workload::{generate, GenRequest, MixWeights};
use w5_sim::{build_population, PopulationConfig, World};

/// How a client reaches the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnMode {
    /// One persistent connection per client (`HttpClient::connect`).
    KeepAlive,
    /// A fresh TCP connection per request (`HttpClient::request`).
    PerRequest,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub users: usize,
    pub mix: MixWeights,
    pub conn: ConnMode,
    /// Requests per measured second. The measured stream holds
    /// `seconds × nominal_rps` requests, so every run does the same work
    /// (the same writes, the same store growth) whatever the host's speed.
    pub nominal_rps: f64,
}

/// The benchmark's workloads; `BENCHMARK.json` records why each was chosen.
pub fn workloads() -> [Workload; 3] {
    [
        Workload {
            name: "browse_small",
            users: 20,
            mix: MixWeights::default(),
            conn: ConnMode::KeepAlive,
            nominal_rps: 2800.0,
        },
        Workload {
            name: "social_large",
            users: 2000,
            mix: MixWeights {
                view_photo: 10,
                list_photos: 5,
                list_blog: 40,
                write_post: 20,
                feed: 25,
            },
            conn: ConnMode::KeepAlive,
            nominal_rps: 700.0,
        },
        Workload {
            name: "connect_per_request",
            users: 20,
            mix: MixWeights::default(),
            conn: ConnMode::PerRequest,
            nominal_rps: 2000.0,
        },
    ]
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        workloads().into_iter().find(|w| w.name == name)
    }

    /// The world every run of the workload serves: the default population
    /// (seed included) at the workload's size. Only the request stream
    /// follows `--seed`, so runs with different seeds differ in what they
    /// ask, not in the friend graph they ask it of.
    pub fn population(&self) -> PopulationConfig {
        PopulationConfig {
            users: self.users,
            ..PopulationConfig::default()
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Every app `build_population` installs.
pub const APP_KEYS: [&str; 5] = [
    "devA/photos",
    "devB/blog",
    "devC/social",
    "devD/recommender",
    "devD/dating",
];

/// The seeded request stream plus, per request, the status the same
/// request gets from `Platform::invoke` on a twin world built from the
/// same seed. The twin is the correctness oracle for every run.
pub struct Stream {
    pub requests: Vec<GenRequest>,
    pub expected: Vec<u16>,
    /// Store rows the stream adds (its blog writes).
    pub rows_added: usize,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64, len: usize) -> Stream {
        let twin = build_population(Platform::new_default("twin"), w.population());
        let requests = generate(&twin, w.mix, len, seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let rows_before = twin.platform.db.total_rows();
        let expected = requests.iter().map(|g| invoke(&twin, g).status).collect();
        let rows_added = twin.platform.db.total_rows() - rows_before;
        Stream {
            requests,
            expected,
            rows_added,
        }
    }
}

/// Run one generated request through `Platform::invoke`.
pub fn invoke(world: &World, g: &GenRequest) -> w5_platform::InvokeResult {
    world.platform.invoke(
        Some(&world.accounts[g.viewer]),
        &g.app,
        app_request(world, g),
    )
}

/// The `AppRequest` a generated request decomposes into.
pub fn app_request(world: &World, g: &GenRequest) -> w5_platform::AppRequest {
    let params: Vec<(&str, &str)> = g
        .params
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    Platform::make_request(
        g.method,
        g.action,
        &params,
        Some(&world.accounts[g.viewer]),
        Bytes::new(),
    )
}

/// The HTTP request a browser holding `cookie` would send for `g`.
pub fn wire_request(g: &GenRequest, cookie: &str) -> Request {
    let query =
        w5_net::encoding::encode_query(g.params.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    let mut headers = std::collections::BTreeMap::new();
    headers.insert("cookie".to_string(), cookie.to_string());
    let method = if g.method == "POST" {
        headers.insert(
            "content-type".to_string(),
            "application/x-www-form-urlencoded".to_string(),
        );
        Method::Post
    } else {
        Method::Get
    };
    Request {
        method,
        path: format!("/app/{}/{}", g.app, g.action),
        query_raw: query,
        headers,
        body: Bytes::new(),
    }
}

/// Replaces an installed app with one that wraps it.
pub type AppWrapper<'a> = dyn Fn(Arc<dyn W5App>) -> Arc<dyn W5App> + 'a;

/// A world served over loopback, with every user logged in.
pub struct Stack {
    pub world: World,
    pub gateway: Arc<Gateway>,
    pub server: ServerHandle,
    /// The server's engine, when the stack was started with a handle on it.
    pub pipeline: Option<Arc<Pipeline>>,
    /// `cookie` header value per account index.
    pub cookies: Vec<String>,
}

/// Which engine handle a stack keeps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Server::start`, exactly as a deployment starts it.
    Default,
    /// The same pipeline `Server::start` builds, started by hand so its
    /// counters can be read.
    Observed,
}

impl Stack {
    /// Build the world, optionally replace each app with a wrapper, start
    /// the server and log every user in over HTTP.
    pub fn start(w: &Workload, engine: Engine, wrap: Option<&AppWrapper>) -> Stack {
        let world = build_population(Platform::new_default("bench"), w.population());
        if let Some(wrap) = wrap {
            for key in APP_KEYS {
                let app = world
                    .platform
                    .app_impl(key)
                    .expect("app installed by build_population");
                world.platform.install_app(key, wrap(app));
            }
        }
        let gateway = Arc::new(Gateway::new(Arc::clone(&world.platform)));
        let (server, pipeline) = match engine {
            Engine::Default => {
                let s = Server::start("127.0.0.1:0", ServerConfig::default(), gateway.clone())
                    .expect("bind loopback");
                (s, None)
            }
            Engine::Observed => {
                let p = Pipeline::start(
                    PipelineConfig::from_env(),
                    gateway.clone(),
                    Arc::new(w5_net::OpenAdmission),
                );
                let s = Server::start_engine("127.0.0.1:0", ServerConfig::default(), p.clone())
                    .expect("bind loopback");
                (s, Some(p))
            }
        };
        let cookies = login_all(server.addr(), &world);
        Stack {
            world,
            gateway,
            server,
            pipeline,
            cookies,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn wire_requests(&self, stream: &Stream) -> Vec<Request> {
        stream
            .requests
            .iter()
            .map(|g| wire_request(g, &self.cookies[g.viewer]))
            .collect()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

fn login_all(addr: SocketAddr, world: &World) -> Vec<String> {
    let mut conn = HttpClient::new().connect(addr).expect("connect for logins");
    world
        .accounts
        .iter()
        .map(|a| {
            let mut req = Request::get("/login");
            req.method = Method::Post;
            req.headers.insert(
                "content-type".to_string(),
                "application/x-www-form-urlencoded".to_string(),
            );
            req.body = Bytes::from(format!("user={}&password=pw", a.username));
            let resp = match conn.request(&req) {
                Ok(r) => r,
                Err(_) => {
                    // The server closed the connection at its per-connection cap.
                    conn = HttpClient::new()
                        .connect(addr)
                        .expect("reconnect for logins");
                    conn.request(&req).expect("login request")
                }
            };
            let c = w5_platform::session_cookie_of(&resp).expect("login sets a session cookie");
            format!("{}={}", w5_platform::SESSION_COOKIE, c.value)
        })
        .collect()
}
