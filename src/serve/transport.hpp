/**
 * @file
 * Transports feeding UncertainServer: an in-process loopback for
 * deterministic tests and a localhost TCP listener for real clients.
 *
 * Both speak the framing of serve/protocol.hpp end to end — the
 * loopback does not shortcut the codec: requests are encoded to
 * bytes, decoded by the server, and replies are encoded again before
 * the client parses them, so every test exercises the wire format.
 *
 * Slow-consumer defense: reply sinks must never block the coalescing
 * workers. The loopback inbox and each TCP connection's outbound
 * queue are therefore bounded; when a client stops draining, further
 * replies to it are counted and dropped while the server keeps
 * serving everyone else. (The server core itself never drops a
 * reply — only a transport talking to an unresponsive peer does.)
 */

#ifndef UNCERTAIN_SERVE_TRANSPORT_HPP
#define UNCERTAIN_SERVE_TRANSPORT_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace uncertain {
namespace serve {

/**
 * In-process client: submits encoded frames straight into the
 * server's admission path and collects encoded replies in a private
 * inbox. send() may be called from any thread; receive() and call()
 * serve one consuming thread at a time. Many clients may share one
 * server. The inbox is held by shared_ptr, so replies arriving after
 * the client is destroyed land harmlessly instead of dangling.
 *
 * A receive() that finds its own buffer empty takes every frame the
 * reply sinks have queued under one lock, then serves later receives
 * from that buffer without touching the shared lock. Frames taken
 * but not yet read still count toward the inbox capacity and
 * pendingReplies().
 */
class LoopbackClient
{
  public:
    /**
     * @p inboxCapacity bounds buffered replies; 0 means unbounded.
     * A bounded inbox that fills drops further replies (counted by
     * dropped()) — the slow-consumer scenario of the fault tests.
     */
    explicit LoopbackClient(UncertainServer& server,
                            std::size_t inboxCapacity = 0);

    /** Encode and submit @p request; the reply lands in the inbox. */
    void send(const Request& request);

    /** Submit a raw payload (no length prefix) — for malformed-frame
     *  and truncation tests. */
    void sendRaw(const std::uint8_t* payload, std::size_t size);

    /**
     * Pop and decode the oldest reply, waiting up to @p timeout.
     * Returns false on timeout or an undecodable reply frame.
     */
    bool receive(Response& out,
                 std::chrono::milliseconds timeout
                 = std::chrono::milliseconds(10000));

    /** send() + receive(); throws uncertain::Error on timeout or a
     *  reply that fails to decode. */
    Response call(const Request& request,
                  std::chrono::milliseconds timeout
                  = std::chrono::milliseconds(10000));

    /** Replies dropped by a full bounded inbox. */
    std::uint64_t dropped() const;

    /** Replies currently buffered (queued or taken, not yet read). */
    std::size_t pendingReplies() const;

  private:
    using Frames = std::deque<std::vector<std::uint8_t>>;

    struct Inbox
    {
        std::mutex mutex;
        std::condition_variable cv;
        Frames frames; //!< queued by reply sinks
        std::size_t capacity = 0;
        std::uint64_t dropped = 0;
        /** Frames the receiver has taken but not yet read. */
        std::atomic<std::size_t> taken{0};
    };

    UncertainServer* server_;
    std::shared_ptr<Inbox> inbox_;
    Frames received_; //!< the receiver's side; no lock
};

/**
 * Localhost TCP listener: accepts connections, reads request frames,
 * submits them, and writes reply frames. One reader and one writer
 * thread per connection; the writer drains a bounded outbound queue
 * so a worker's reply sink only ever enqueues (never blocks on a
 * peer's socket).
 *
 * Framing faults: an oversized frame is answered Status::TooLarge
 * and the connection is closed (the stream offset is no longer
 * trustworthy); a short read / disconnect mid-frame closes the
 * connection and any in-flight replies to it are dropped — the
 * server stays up either way.
 *
 * Construction throws uncertain::Error when the listen socket cannot
 * be bound (tests GTEST_SKIP on that in sandboxed environments).
 */
class TcpTransport
{
  public:
    static constexpr std::size_t kOutboundQueueFrames = 256;

    /** Bind 127.0.0.1:@p port (0 = ephemeral) and start accepting. */
    explicit TcpTransport(UncertainServer& server,
                          std::uint16_t port = 0);
    ~TcpTransport();

    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    /** The bound port (resolved when constructed with port 0). */
    std::uint16_t port() const { return port_; }

    /** Stop accepting, close every connection, join the threads. */
    void stop();

    /** Replies dropped on full outbound queues or closed peers. */
    std::uint64_t droppedReplies() const;

    /** Connections accepted over the transport's lifetime. */
    std::uint64_t connectionsAccepted() const;

  private:
    struct Connection;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> connection);
    void writerLoop(std::shared_ptr<Connection> connection);

    UncertainServer* server_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> droppedReplies_{0};
    std::atomic<std::uint64_t> connectionsAccepted_{0};

    std::mutex connectionsMutex_;
    std::vector<std::shared_ptr<Connection>> connections_;
};

/**
 * Minimal blocking TCP client for tests and the load generator:
 * connects to 127.0.0.1:port, sends frames, polls for replies.
 */
class TcpClient
{
  public:
    /** Connect; throws uncertain::Error on failure. */
    explicit TcpClient(std::uint16_t port);
    ~TcpClient();

    TcpClient(const TcpClient&) = delete;
    TcpClient& operator=(const TcpClient&) = delete;

    void send(const Request& request);

    /** Write raw bytes as-is (framing-fault injection). */
    void sendBytes(const void* data, std::size_t size);

    /** Read one reply frame, waiting up to @p timeout. */
    bool receive(Response& out,
                 std::chrono::milliseconds timeout
                 = std::chrono::milliseconds(10000));

    Response call(const Request& request,
                  std::chrono::milliseconds timeout
                  = std::chrono::milliseconds(10000));

    /** Hard-close the socket without reading pending replies — the
     *  disconnect-mid-flight scenario. */
    void closeAbruptly();

    bool connected() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    std::vector<std::uint8_t> buffer_; //!< partial-frame carryover
};

} // namespace serve
} // namespace uncertain

#endif // UNCERTAIN_SERVE_TRANSPORT_HPP
