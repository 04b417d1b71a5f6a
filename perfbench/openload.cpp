/**
 * @file
 * Open-loop load generator for hmserved, and the served-output checks.
 *
 *   openload warm --port=P --requests=FILE [--verify]
 *       Send every distinct request body once as JSON (text manifest
 *       body, JSON response) and once as HMW1 (binary body, binary
 *       response). Both must decode to the same score document; with
 *       --verify each must also equal the in-process pipeline result
 *       for the same manifest line.
 *
 *   openload run --port=P --requests=FILE --seed=N --rate=R
 *                --seconds=A --workers=W --daemon-pid=PID
 *                [--miss-permille=M] [--observe-permille=O]
 *                [--observe-suites=a,b]
 *       Drive the daemon on a fixed schedule, rate R for A seconds,
 *       and say whether it kept within the latency limit. Each
 *       request is sent when it is due, pipelined behind any requests
 *       still unanswered on its connection, and timed from its due
 *       time, so the offered load does not depend on response time and
 *       a stall also delays the requests scheduled behind it. A
 *       separate connection scrapes GET /metrics every 250 ms. Misses
 *       carry fresh seeds; a sample of their documents is checked
 *       against the in-process pipeline.
 *
 * One process with W sender threads (one connection each) plus one
 * scraper thread. Prints one JSON object on its last line.
 */

#include <atomic>
#include <cerrno>
#include <deque>
#include <iostream>
#include <mutex>
#include <thread>

#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include "perfbench/common.h"
#include "src/core/characterization.h"
#include "src/core/pipeline.h"
#include "src/engine/engine.h"
#include "src/engine/manifest.h"
#include "src/scoring/score_report.h"
#include "src/server/client.h"
#include "src/server/wire_json.h"
#include "src/util/file.h"
#include "src/util/net.h"
#include "src/wire/wire.h"

namespace hm = hiermeans;
using namespace perfbench;

namespace {

struct Request
{
    std::string body; ///< what is POSTed (a line or a suite reference).
    std::string line; ///< the manifest line it expands to.
};

std::vector<Request>
readRequests(const std::string &path)
{
    std::vector<Request> out;
    std::istringstream in(hm::util::readFile(path));
    std::string row;
    while (std::getline(in, row)) {
        const std::size_t tab = row.find('\t');
        if (tab != std::string::npos)
            out.push_back({row.substr(0, tab), row.substr(tab + 1)});
    }
    if (out.empty())
        throw std::runtime_error("no requests in " + path);
    return out;
}

enum class Format : std::uint8_t { Json = 0, Binary = 1 };

/** POST /v1/score in one wire format. */
hm::server::HttpResponseParser::Response
postScore(hm::server::HttpClient &client, const std::string &text,
          Format format)
{
    if (format == Format::Json)
        return client.roundTrip("POST", "/v1/score", text, "text/plain");
    return client.roundTrip("POST", "/v1/score",
                            hm::wire::encodeScoreRequest(text),
                            hm::wire::kMediaType,
                            {{"Accept", hm::wire::kMediaType}});
}

hm::wire::ScoreDocument
decodeDocument(const std::string &body, Format format)
{
    return format == Format::Json
               ? hm::server::scoreDocumentFromJson(body)
               : hm::wire::decodeScoreReport(body);
}

/** Equal score content: every field but provenance and wall time. */
bool
sameScore(const hm::wire::ScoreDocument &a, const hm::wire::ScoreDocument &b)
{
    if (a.id != b.id || a.fingerprint != b.fingerprint ||
        a.recommendedK != b.recommendedK || a.ratio != b.ratio ||
        a.plainRatio != b.plainRatio || a.rows.size() != b.rows.size())
        return false;
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        const auto &x = a.rows[i];
        const auto &y = b.rows[i];
        if (x.k != y.k || x.scoreA != y.scoreA || x.scoreB != y.scoreB ||
            x.ratio != y.ratio)
            return false;
    }
    return true;
}

/** The score document the daemon should serve for @p line, computed
 *  in this process straight from the public pipeline calls. */
hm::wire::ScoreDocument
inProcessDocument(const std::string &line, hm::engine::CsvCache &csvs)
{
    const auto parsed = hm::engine::parseManifest(line);
    const hm::engine::ScoreRequest request = hm::engine::buildManifestRequest(
        parsed.front(), hm::util::CommandLine::parse({"hmserved"}), csvs);
    hm::core::PipelineConfig config = request.config;
    config.som.seed = request.seed;
    const hm::core::ClusterAnalysis analysis = hm::core::analyzeClusters(
        hm::core::characterizeRaw(request.features, request.workloads,
                                  request.featureNames),
        config);
    const hm::scoring::ScoreReport report = hm::scoring::buildScoreReport(
        request.kind, request.scoresA, request.scoresB, analysis.partitions);
    hm::wire::ScoreDocument doc;
    doc.id = request.id;
    doc.fingerprint = hm::engine::fingerprintRequest(request);
    doc.recommendedK = report.rows[report.recommendedRow()].clusterCount;
    doc.ratio = report.rows[report.recommendedRow()].ratio;
    doc.plainRatio = report.plainRatio;
    for (const auto &row : report.rows)
        doc.rows.push_back({static_cast<std::uint32_t>(row.clusterCount),
                            row.scoreA, row.scoreB, row.ratio});
    return doc;
}

int
cmdWarm(const std::map<std::string, std::string> &args)
{
    const auto requests = readRequests(args.at("requests"));
    hm::server::HttpClient client(
        "127.0.0.1", static_cast<std::uint16_t>(std::stoi(args.at("port"))));
    client.setReadTimeoutMillis(60000);
    bool correct = true;
    std::size_t failed = 0;
    std::vector<std::pair<hm::wire::ScoreDocument, std::string>> served;
    const auto t0 = Clock::now();
    for (const auto &request : requests) {
        hm::wire::ScoreDocument docs[2];
        for (const Format format : {Format::Json, Format::Binary}) {
            const auto response = postScore(client, request.body, format);
            if (response.status != 200) {
                std::cerr << "openload: warm request answered "
                          << response.status << ": " << response.body
                          << "\n";
                ++failed;
                correct = false;
                continue;
            }
            docs[static_cast<int>(format)] =
                decodeDocument(response.body, format);
        }
        if (!sameScore(docs[0], docs[1]))
            correct = false;
        served.emplace_back(docs[1], request.line);
    }
    const double sendMs = millisBetween(t0, Clock::now());
    std::size_t verified = 0;
    if (args.count("verify")) {
        hm::engine::CsvCache csvs;
        for (const auto &[doc, line] : served) {
            if (!sameScore(doc, inProcessDocument(line, csvs)))
                correct = false;
            ++verified;
        }
    }
    std::cout << JsonObject()
                     .boolean("correct", correct)
                     .num("attempted", 2.0 * requests.size())
                     .num("failed", static_cast<double>(failed))
                     .num("send_ms", sendMs)
                     .num("verified", static_cast<double>(verified))
                     .render()
              << std::endl;
    return 0;
}

// --- open loop ------------------------------------------------------------

/** A phase is within the limit when its score tail and its send lag
 *  stay under this (the rate ladder's pass mark). */
constexpr double kTailLimitMs = 25.0;
/** Cadence of the operator-style GET /metrics scrape. */
constexpr double kScrapePeriodMs = 250.0;
/** Requests due longer ago than this are dropped, not sent. */
constexpr double kDropAfterMs = 1000.0;
/** A connection with requests outstanding and no reply for this long
 *  fails them. */
constexpr double kStallMs = 30000.0;

enum class Kind : std::uint8_t { Score, Observe };
enum class Outcome : std::uint8_t { Pending, Ok, Failed, Refused, Dropped };

struct Sample
{
    double dueMs = 0.0; ///< schedule offset from the phase start.
    double lagMs = 0.0; ///< sent minus due.
    double latencyMs = 0.0; ///< done minus due.
    std::uint32_t bytes = 0; ///< request + response body bytes.
    Kind kind = Kind::Score;
    Format format = Format::Json;
    Outcome outcome = Outcome::Pending;
};

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** One miss kept for the in-process check. */
struct MissSample
{
    std::string line;
    std::string body;
    Format format = Format::Json;
};

/** A request written to a connection and not yet answered. */
struct Outstanding
{
    std::size_t index = 0;
    std::size_t requestBytes = 0;
    std::string missLine; ///< the manifest line of a miss to check.
};

/**
 * One keep-alive connection with its requests pipelined: each request
 * is written when it is due, whether or not earlier ones have been
 * answered, and responses are matched to requests in order. Writes
 * never block, so a daemon that falls behind shows as latency, not as
 * a generator that stops sending.
 */
struct Connection
{
    hm::net::Socket socket;
    hm::server::HttpResponseParser parser;
    std::string unsent;
    std::deque<Outstanding> outstanding;
};

std::string
httpRequest(const std::string &target, const std::string &body,
            const char *contentType, bool acceptBinary)
{
    std::string out = "POST " + target +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: " +
                      contentType + "\r\n";
    if (acceptBinary)
        out += std::string("Accept: ") + hm::wire::kMediaType + "\r\n";
    return out + "Content-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
}

class Generator
{
  public:
    Generator(const std::map<std::string, std::string> &args)
        : requests_(readRequests(args.at("requests"))),
          port_(static_cast<std::uint16_t>(std::stoi(args.at("port")))),
          seed_(std::stoull(args.at("seed"))),
          missPermille_(get(args, "miss-permille", 0)),
          observePermille_(get(args, "observe-permille", 0)),
          connections_(std::stoull(args.at("workers")))
    {
        std::istringstream suites(
            args.count("observe-suites") ? args.at("observe-suites") : "");
        std::string name;
        while (std::getline(suites, name, ','))
            if (!name.empty())
                observeSuites_.push_back(name);
        if (observeSuites_.empty())
            observePermille_ = 0;
    }

    /**
     * Run @p count requests due at @p rate from now, spread round-robin
     * over the connections, one sender thread each. Returns the samples
     * in schedule order.
     */
    std::vector<Sample> phase(double rate, std::size_t count)
    {
        std::vector<Sample> samples(count);
        const auto start = Clock::now() + std::chrono::milliseconds(2);
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < connections_.size(); ++w)
            threads.emplace_back(
                [&, w] { drive(connections_[w], w, samples, rate, start); });
        for (auto &t : threads)
            t.join();
        serial_ += count;
        return samples;
    }

    std::vector<MissSample> misses()
    {
        std::lock_guard<std::mutex> lock(missMutex_);
        return misses_;
    }

    std::uint16_t port() const { return port_; }

  private:
    static std::int64_t get(const std::map<std::string, std::string> &args,
                            const std::string &key, std::int64_t fallback)
    {
        return args.count(key) ? std::stoll(args.at(key)) : fallback;
    }

    /** One connection's share of a phase: requests w, w + W, ... */
    void drive(Connection &c, std::size_t w, std::vector<Sample> &samples,
               double rate, Clock::time_point start)
    {
        const auto dueAt = [&](std::size_t i) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   1000.0 * static_cast<double>(i) / rate));
        };
        std::size_t next = w;
        auto lastReply = Clock::now();
        try {
            while (next < samples.size() || !c.outstanding.empty()) {
                const auto now = Clock::now();
                for (; next < samples.size() && dueAt(next) <= now;
                     next += connections_.size()) {
                    Sample &s = samples[next];
                    s.dueMs = 1000.0 * static_cast<double>(next) / rate;
                    s.lagMs = millisBetween(dueAt(next), now);
                    if (s.lagMs > kDropAfterMs)
                        s.outcome = Outcome::Dropped;
                    else
                        enqueue(c, next, s);
                }
                if (!flush(c)) {
                    fail(c, samples);
                    continue;
                }
                if (c.outstanding.empty()) {
                    lastReply = Clock::now();
                    if (next < samples.size())
                        std::this_thread::sleep_until(dueAt(next));
                    continue;
                }
                // Wait for a reply, or until the next request is due.
                const auto wake = next < samples.size()
                                      ? dueAt(next)
                                      : now + std::chrono::milliseconds(100);
                const auto wait = std::max<Clock::duration>(
                    wake - Clock::now(), Clock::duration::zero());
                const auto ns =
                    std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                        .count();
                const timespec timeout{static_cast<time_t>(ns / 1000000000),
                                       static_cast<long>(ns % 1000000000)};
                pollfd pfd{c.socket.fd(),
                           static_cast<short>(POLLIN |
                                              (c.unsent.empty() ? 0 : POLLOUT)),
                           0};
                if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0 ||
                    (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                    if (millisBetween(lastReply, Clock::now()) > kStallMs)
                        fail(c, samples);
                    continue;
                }
                char buffer[16384];
                const std::size_t n =
                    hm::net::readSome(c.socket.fd(), buffer, sizeof buffer);
                if (n == 0) {
                    fail(c, samples);
                    continue;
                }
                lastReply = Clock::now();
                // Acknowledge what was read at once. The daemon leaves
                // Nagle's algorithm on; with this side's acknowledgements
                // delayed, replies were seen to arrive only when the next
                // request went out, so latency read as request spacing.
                setOption(c.socket, TCP_QUICKACK);
                auto state = c.parser.feed(std::string_view(buffer, n));
                bool closed = false;
                while (state == hm::server::HttpResponseParser::State::Ready &&
                       !c.outstanding.empty()) {
                    const auto &response = c.parser.response();
                    static const std::string kKeepAlive = "keep-alive";
                    closed = response.header("connection", kKeepAlive) ==
                             "close";
                    complete(c.outstanding.front(), samples, response,
                             millisBetween(start, lastReply));
                    c.outstanding.pop_front();
                    state = c.parser.reset();
                }
                if (closed ||
                    state == hm::server::HttpResponseParser::State::Error)
                    fail(c, samples);
            }
        } catch (const std::exception &) {
            // The daemon is unreachable: nothing more on this connection
            // can be answered.
            fail(c, samples);
            for (; next < samples.size(); next += connections_.size())
                samples[next].outcome = Outcome::Failed;
        }
    }

    static void setOption(const hm::net::Socket &socket, int option)
    {
        const int on = 1;
        ::setsockopt(socket.fd(), IPPROTO_TCP, option, &on, sizeof on);
    }

    /** Write what the socket takes now; false when the peer is gone. */
    static bool flush(Connection &c)
    {
        while (!c.unsent.empty()) {
            const ssize_t n = ::send(c.socket.fd(), c.unsent.data(),
                                     c.unsent.size(),
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n > 0) {
                c.unsent.erase(0, static_cast<std::size_t>(n));
                continue;
            }
            return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                             errno == EINTR);
        }
        return true;
    }

    /** Fail everything outstanding on @p c and drop the connection;
     *  the next request reconnects. */
    static void fail(Connection &c, std::vector<Sample> &samples)
    {
        for (const auto &o : c.outstanding)
            samples[o.index].outcome = Outcome::Failed;
        c.outstanding.clear();
        c.unsent.clear();
        c.socket.close();
        c.parser = hm::server::HttpResponseParser{};
    }

    /** Build request @p i of the phase and queue it on @p c. */
    void enqueue(Connection &c, std::size_t i, Sample &s)
    {
        if (!c.socket.valid()) {
            c.socket = hm::net::connectTcp("127.0.0.1", port_);
            // A request written while an earlier one is unacknowledged
            // goes out at once instead of waiting behind it.
            setOption(c.socket, TCP_NODELAY);
        }
        // The request mix is a function of (seed, global serial) only.
        const std::uint64_t serial = serial_ + i;
        const std::uint64_t h = splitmix(seed_ * 1000003 + serial);
        const std::uint64_t roll = (h >> 20) % 1000;
        Outstanding o;
        o.index = i;
        if (roll < static_cast<std::uint64_t>(observePermille_)) {
            s.kind = Kind::Observe;
            s.format = Format::Json;
            const std::string &suite =
                observeSuites_[(h >> 40) % observeSuites_.size()];
            char body[96];
            std::snprintf(
                body, sizeof body, "{\"ratio\":%.6f,\"id\":\"o%llu\"}",
                1.0 + static_cast<double>((h >> 8) % 1000) / 1000.0,
                static_cast<unsigned long long>(serial));
            o.requestBytes = std::strlen(body);
            c.unsent += httpRequest("/v1/suites/" + suite + "/observe", body,
                                    "application/json", false);
            c.outstanding.push_back(std::move(o));
            return;
        }
        s.kind = Kind::Score;
        s.format = (h & 1) ? Format::Binary : Format::Json;
        const Request &request = requests_[(h >> 1) % requests_.size()];
        const bool miss =
            roll >= 1000 - static_cast<std::uint64_t>(missPermille_);
        std::string body = request.body;
        if (miss) { // a fresh seed: a new fingerprint, so a cache miss.
            const std::string seed =
                std::to_string(1000000 + serial + seed_ * 100000000);
            body += " seed=" + seed;
            o.missLine = request.line + " seed=" + seed;
        }
        if (s.format == Format::Binary)
            body = hm::wire::encodeScoreRequest(body);
        o.requestBytes = body.size();
        c.unsent += httpRequest("/v1/score", body,
                                s.format == Format::Json
                                    ? "text/plain"
                                    : hm::wire::kMediaType,
                                s.format == Format::Binary);
        c.outstanding.push_back(std::move(o));
    }

    void complete(const Outstanding &o, std::vector<Sample> &samples,
                  const hm::server::HttpResponseParser::Response &response,
                  double doneMs)
    {
        Sample &s = samples[o.index];
        s.latencyMs = doneMs - s.dueMs;
        s.bytes = static_cast<std::uint32_t>(o.requestBytes +
                                             response.body.size());
        s.outcome = classify(response.status);
        if (!o.missLine.empty() && s.outcome == Outcome::Ok)
            keepMiss(o.missLine, response.body, s.format);
    }

    static Outcome classify(int status)
    {
        if (status == 200)
            return Outcome::Ok;
        if (status == 503 || status == 429)
            return Outcome::Refused;
        return Outcome::Failed;
    }

    void keepMiss(const std::string &line, const std::string &body,
                  Format format)
    {
        std::lock_guard<std::mutex> lock(missMutex_);
        if (misses_.size() < 8)
            misses_.push_back({line, body, format});
    }

    std::vector<Request> requests_;
    std::uint16_t port_;
    std::uint64_t seed_;
    std::int64_t missPermille_;
    std::int64_t observePermille_;
    std::vector<Connection> connections_;
    std::vector<std::string> observeSuites_;
    std::uint64_t serial_ = 0;
    std::mutex missMutex_;
    std::vector<MissSample> misses_;
};

/** GET /metrics on a fixed cadence from its own connection. */
class Scraper
{
  public:
    Scraper(std::uint16_t port, double periodMs)
        : client_("127.0.0.1", port), periodMs_(periodMs)
    {
        client_.setReadTimeoutMillis(30000);
    }

    ~Scraper() { stop(); }

    Scraper(const Scraper &) = delete;
    Scraper &operator=(const Scraper &) = delete;

    /** Scrape once now (the baseline for the deltas), then on cadence. */
    void start()
    {
        first_ = scrape();
        thread_ = std::thread([this] {
            auto next = Clock::now();
            while (!stop_.load()) {
                next += std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(periodMs_));
                std::this_thread::sleep_until(next);
                if (!stop_.load())
                    scrape();
            }
        });
    }

    void stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

    /** A final scrape after the load (the end of the deltas). */
    std::map<std::string, double> finish()
    {
        stop();
        return scrape();
    }

    const std::map<std::string, double> &first() const { return first_; }
    const std::vector<double> &wallMs() const { return wallMs_; }
    double queueDepthMax() const { return queueDepthMax_; }

  private:
    std::map<std::string, double> scrape()
    {
        const auto t0 = Clock::now();
        const auto response = client_.roundTrip("GET", "/metrics");
        const double wall = millisBetween(t0, Clock::now());
        std::map<std::string, double> series;
        std::istringstream in(response.body);
        std::string row;
        while (std::getline(in, row)) {
            if (row.empty() || row[0] == '#')
                continue;
            const std::size_t space = row.rfind(' ');
            if (space == std::string::npos)
                continue;
            series[row.substr(0, space)] = std::atof(row.c_str() + space + 1);
        }
        if (response.status == 200)
            wallMs_.push_back(wall);
        queueDepthMax_ = std::max(
            queueDepthMax_, series["hiermeans_server_admission_queue_depth"]);
        return series;
    }

    hm::server::HttpClient client_;
    double periodMs_;
    std::atomic<bool> stop_{false};
    std::map<std::string, double> first_;
    std::vector<double> wallMs_;
    double queueDepthMax_ = 0.0;
    std::thread thread_; ///< last: joins before the members it uses die.
};

/** Latency of a score sample; anything not answered 200 misses every
 *  limit, so it ranks above all answered ones. */
double
rankedLatency(const Sample &s)
{
    return s.outcome == Outcome::Ok ? s.latencyMs : 1e12;
}

/**
 * Score latency of one phase. The phase is cut into at most 64 windows
 * of at least 200 requests, so each window's p90 has 20 samples beyond
 * it; the tail is the median of the windows' p90s. On a
 * shared host a stall of a few milliseconds lands in about half of all
 * half-second windows, so a p99 over long windows reads the stalls, not
 * the daemon; short windows leave most of them clean.
 */
struct PhaseStats
{
    double p50 = 0.0;
    double tail = 0.0;
    std::vector<double> windowP50, windowTail;
    double tailRank = 50.0;
    double endLagMs = 0.0; ///< median send lag in the last window.
    std::size_t scores = 0, bad = 0;
};

PhaseStats
scoreStats(const std::vector<Sample> &samples)
{
    PhaseStats out;
    std::vector<double> all;
    for (const auto &s : samples) {
        if (s.kind == Kind::Score) {
            all.push_back(rankedLatency(s));
            out.bad += s.outcome != Outcome::Ok;
        }
    }
    out.scores = all.size();
    out.p50 = percentile(all, 50.0);
    const std::size_t windows =
        std::clamp<std::size_t>(all.size() / 200, 1, 64);
    std::vector<std::vector<double>> lat(windows), lag(windows);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::size_t w = i * windows / samples.size();
        lag[w].push_back(samples[i].lagMs);
        if (samples[i].kind == Kind::Score)
            lat[w].push_back(rankedLatency(samples[i]));
    }
    out.tailRank = tailRank(all.size() / windows);
    for (const auto &w : lat) {
        out.windowP50.push_back(percentile(w, 50.0));
        out.windowTail.push_back(percentile(w, out.tailRank));
    }
    out.tail = median(out.windowTail);
    out.endLagMs = median(lag.back());
    return out;
}

double
delta(const std::map<std::string, double> &a,
      const std::map<std::string, double> &b, const std::string &prefix,
      const std::string &must = "")
{
    double total = 0.0;
    for (const auto &[key, value] : b) {
        if (key.rfind(prefix, 0) != 0 ||
            (key.size() > prefix.size() && key[prefix.size()] != '{'))
            continue;
        if (!must.empty() && key.find(must) == std::string::npos)
            continue;
        const auto it = a.find(key);
        total += value - (it == a.end() ? 0.0 : it->second);
    }
    return total;
}

int
cmdRun(const std::map<std::string, std::string> &args)
{
    const double seconds = std::stod(args.at("seconds"));
    const double rate = std::stod(args.at("rate"));

    Generator generator(args);
    Scraper scraper(generator.port(), kScrapePeriodMs);
    scraper.start();

    const auto samples = generator.phase(
        rate, std::max<std::size_t>(20, static_cast<std::size_t>(
                                            rate * seconds)));
    const double daemonRssMib = peakRssMib(args.at("daemon-pid"));
    const PhaseStats stats = scoreStats(samples);
    const bool withinLimit = stats.bad == 0 &&
                             stats.tail <= kTailLimitMs &&
                             stats.endLagMs <= kTailLimitMs;
    double lastDone = 0.0;
    for (const auto &s : samples)
        lastDone = std::max(lastDone, s.dueMs + s.latencyMs);

    const auto last = scraper.finish();
    const auto &first = scraper.first();

    std::vector<double> lat, lag, observeLat, byFormat[2];
    double bytes[2] = {0, 0};
    std::size_t perFormat[2] = {0, 0}, failed = 0, refused = 0, observes = 0;
    for (const auto &s : samples) {
        lag.push_back(s.lagMs);
        if (s.outcome == Outcome::Refused)
            ++refused;
        else if (s.outcome != Outcome::Ok)
            ++failed;
        if (s.kind == Kind::Observe) {
            ++observes;
            observeLat.push_back(rankedLatency(s));
            continue;
        }
        lat.push_back(rankedLatency(s));
        const int f = static_cast<int>(s.format);
        byFormat[f].push_back(rankedLatency(s));
        bytes[f] += s.bytes;
        ++perFormat[f];
    }

    // Served documents of sampled misses against the in-process pipeline.
    bool correct = true;
    hm::engine::CsvCache csvs;
    const auto misses = generator.misses();
    for (const auto &miss : misses)
        correct = correct &&
                  sameScore(decodeDocument(miss.body, miss.format),
                            inProcessDocument(miss.line, csvs));
    const double malformed =
        last.count("hiermeans_server_malformed_total")
            ? last.at("hiermeans_server_malformed_total")
            : 0.0;
    correct = correct && malformed == 0.0;

    const double requestsDelta =
        delta(first, last, "hiermeans_engine_requests_total");
    // Over the daemon's life: on cache-hit traffic the only executions
    // are the set-up's.
    const std::map<std::string, double> none;
    const double pipelineCount =
        delta(none, last, "hiermeans_engine_pipeline_duration_ms_count");
    const double scoreCount = delta(
        first, last, "hiermeans_server_request_duration_ms_count", "/v1/score");
    double histogramSamples = 0.0;
    for (const auto &[key, value] : last)
        if (key.rfind("hiermeans_server_request_duration_ms_count", 0) == 0 ||
            key.rfind("hiermeans_engine_request_duration_ms_count", 0) == 0 ||
            key.rfind("hiermeans_engine_pipeline_duration_ms_count", 0) == 0)
            histogramSamples += value;

    JsonObject out;
    out.boolean("correct", correct)
        .num("attempted", static_cast<double>(samples.size()))
        .num("failed", static_cast<double>(failed))
        .num("refused", static_cast<double>(refused))
        .num("score_samples", static_cast<double>(lat.size()))
        .num("score_p50_ms", stats.p50)
        .num("score_tail_ms", stats.tail)
        .raw("window_p50_ms", jsonList(stats.windowP50))
        .raw("window_tail_ms", jsonList(stats.windowTail))
        .num("tail_percentile", stats.tailRank)
        .boolean("within_limit", withinLimit)
        .num("completed_rps", 1000.0 * samples.size() / lastDone)
        .num("daemon_rss_mib", daemonRssMib)
        .num("observes", static_cast<double>(observes))
        .num("observe_p99_ms", percentile(observeLat, 99.0))
        .num("scrapes", static_cast<double>(scraper.wallMs().size()))
        .num("scrape_ms_p50", median(scraper.wallMs()))
        .num("loadgen.lag_p99_ms", percentile(lag, 99.0))
        .num("server.score_p50_ms.json", percentile(byFormat[0], 50.0))
        .num("server.score_p50_ms.binary", percentile(byFormat[1], 50.0))
        .num("wire.bytes_per_request.json",
             perFormat[0] ? bytes[0] / perFormat[0] : 0.0)
        .num("wire.bytes_per_request.binary",
             perFormat[1] ? bytes[1] / perFormat[1] : 0.0)
        .num("engine.cache_hit_ratio",
             requestsDelta > 0
                 ? delta(first, last, "hiermeans_engine_cache_hits_total") /
                       requestsDelta
                 : 0.0)
        .num("engine.executions",
             delta(first, last, "hiermeans_engine_executions_total"))
        .num("engine.pipeline_ms_mean",
             pipelineCount > 0
                 ? delta(none, last,
                         "hiermeans_engine_pipeline_duration_ms_sum") /
                       pipelineCount
                 : 0.0)
        .num("server.request_ms_mean",
             scoreCount > 0
                 ? delta(first, last, "hiermeans_server_request_duration_ms_sum",
                         "/v1/score") /
                       scoreCount
                 : 0.0)
        .num("server.shed", delta(first, last, "hiermeans_server_shed_total"))
        .num("server.queue_depth_max", scraper.queueDepthMax())
        .num("server.malformed", malformed)
        .num("obs.histogram_samples", histogramSamples)
        .num("misses_checked", static_cast<double>(misses.size()));
    std::cout << out.render() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: openload warm|run --port=P --requests=FILE ...\n";
        return 2;
    }
    try {
        const std::string command = argv[1];
        const auto args = parseArgs(argc, argv, 2);
        if (command == "warm")
            return cmdWarm(args);
        if (command == "run")
            return cmdRun(args);
        throw std::runtime_error("unknown command " + command);
    } catch (const std::exception &e) {
        std::cerr << "openload: " << e.what() << "\n";
        return 1;
    }
}
