#include "serve/transport.hpp"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/error.hpp"

namespace uncertain {
namespace serve {

// ----------------------------------------------------------------------
// LoopbackClient
// ----------------------------------------------------------------------

LoopbackClient::LoopbackClient(UncertainServer& server,
                               std::size_t inboxCapacity)
    : server_(&server), inbox_(std::make_shared<Inbox>())
{
    inbox_->capacity = inboxCapacity;
}

void
LoopbackClient::send(const Request& request)
{
    const auto frame = encodeRequest(request);
    // Strip the length prefix: submitFrame takes the payload the way
    // a stream transport would hand it over after reading the length.
    sendRaw(frame.data() + 4, frame.size() - 4);
}

void
LoopbackClient::sendRaw(const std::uint8_t* payload, std::size_t size)
{
    std::shared_ptr<Inbox> inbox = inbox_;
    server_->submitFrame(payload, size, [inbox](const Response& response) {
        auto frame = encodeResponse(response);
        bool wasEmpty;
        {
            std::lock_guard<std::mutex> lock(inbox->mutex);
            if (inbox->capacity > 0
                && inbox->frames.size() + inbox->taken.load()
                       >= inbox->capacity) {
                ++inbox->dropped;
                return;
            }
            wasEmpty = inbox->frames.empty();
            inbox->frames.push_back(std::move(frame));
        }
        // A receiver only ever waits on an empty inbox, so only the
        // frame that ends the emptiness needs to wake it.
        if (wasEmpty)
            inbox->cv.notify_one();
    });
}

bool
LoopbackClient::receive(Response& out, std::chrono::milliseconds timeout)
{
    if (received_.empty()) {
        std::unique_lock<std::mutex> lock(inbox_->mutex);
        if (!inbox_->cv.wait_for(lock, timeout, [this] {
                return !inbox_->frames.empty();
            })) {
            return false;
        }
        inbox_->taken.store(inbox_->frames.size());
        received_.swap(inbox_->frames);
    }
    const std::vector<std::uint8_t> frame = std::move(received_.front());
    received_.pop_front();
    inbox_->taken.fetch_sub(1);
    return frame.size() >= 4
           && decodeResponse(frame.data() + 4, frame.size() - 4, out);
}

Response
LoopbackClient::call(const Request& request,
                     std::chrono::milliseconds timeout)
{
    send(request);
    Response response;
    UNCERTAIN_REQUIRE(receive(response, timeout),
                      "serve: loopback call timed out or reply frame "
                      "failed to decode");
    return response;
}

std::uint64_t
LoopbackClient::dropped() const
{
    std::lock_guard<std::mutex> lock(inbox_->mutex);
    return inbox_->dropped;
}

std::size_t
LoopbackClient::pendingReplies() const
{
    std::lock_guard<std::mutex> lock(inbox_->mutex);
    return inbox_->frames.size() + inbox_->taken.load();
}

// ----------------------------------------------------------------------
// TcpTransport
// ----------------------------------------------------------------------

struct TcpTransport::Connection
{
    int fd = -1;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::vector<std::uint8_t>> outbound;
    bool closed = false;
    std::thread reader;
    std::thread writer;
};

namespace {

/** write() the whole buffer; false on error/peer reset. */
bool
writeAll(int fd, const std::uint8_t* data, std::size_t size)
{
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n = ::send(fd, data + sent, size - sent,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/** Blocking read of exactly @p size bytes; false on EOF/error. */
bool
readAll(int fd, std::uint8_t* data, std::size_t size)
{
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::recv(fd, data + got, size - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        got += static_cast<std::size_t>(n);
    }
    return true;
}

std::uint32_t
readU32Le(const std::uint8_t* data)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t{data[i]} << (8 * i);
    return v;
}

} // namespace

TcpTransport::TcpTransport(UncertainServer& server, std::uint16_t port)
    : server_(&server)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    UNCERTAIN_REQUIRE(listenFd_ >= 0,
                      "serve: cannot create listen socket");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr)
            != 0
        || ::listen(listenFd_, 64) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        UNCERTAIN_REQUIRE(false,
                          "serve: cannot bind localhost listen socket");
    }
    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    acceptThread_ = std::thread([this] { acceptLoop(); });
}

TcpTransport::~TcpTransport()
{
    stop();
}

void
TcpTransport::stop()
{
    if (stopping_.exchange(true))
        return;
    // Shut the listener down so accept() returns; the descriptor is
    // closed only once the accept thread, which reads it, has joined.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    std::vector<std::shared_ptr<Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections.swap(connections_);
    }
    for (const auto& connection : connections) {
        {
            std::lock_guard<std::mutex> lock(connection->mutex);
            connection->closed = true;
            if (connection->fd >= 0)
                ::shutdown(connection->fd, SHUT_RDWR);
        }
        connection->cv.notify_all();
        if (connection->reader.joinable())
            connection->reader.join();
        if (connection->writer.joinable())
            connection->writer.join();
        if (connection->fd >= 0) {
            ::close(connection->fd);
            connection->fd = -1;
        }
    }
}

std::uint64_t
TcpTransport::droppedReplies() const
{
    return droppedReplies_.load();
}

std::uint64_t
TcpTransport::connectionsAccepted() const
{
    return connectionsAccepted_.load();
}

void
TcpTransport::acceptLoop()
{
    while (!stopping_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed (stop) or broken
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        connectionsAccepted_.fetch_add(1);
        {
            std::lock_guard<std::mutex> lock(connectionsMutex_);
            connections_.push_back(connection);
        }
        connection->reader =
            std::thread([this, connection] { readerLoop(connection); });
        connection->writer =
            std::thread([this, connection] { writerLoop(connection); });
    }
}

void
TcpTransport::readerLoop(std::shared_ptr<Connection> connection)
{
    // The reply sink enqueues onto the connection's bounded outbound
    // queue; the writer thread owns the socket writes. A worker
    // calling the sink therefore never blocks on this peer's socket.
    auto sink = [this, connection](const Response& response) {
        auto frame = encodeResponse(response);
        bool notify = false;
        {
            std::lock_guard<std::mutex> lock(connection->mutex);
            if (connection->closed
                || connection->outbound.size()
                       >= kOutboundQueueFrames) {
                droppedReplies_.fetch_add(1);
            } else {
                connection->outbound.push_back(std::move(frame));
                notify = true;
            }
        }
        if (notify)
            connection->cv.notify_one();
    };

    std::vector<std::uint8_t> payload;
    for (;;) {
        std::uint8_t prefix[4];
        if (!readAll(connection->fd, prefix, sizeof prefix))
            break; // disconnect (possibly mid-flight)
        const std::uint32_t length = readU32Le(prefix);
        if (length > kMaxRequestFrameBytes) {
            // The stream offset can no longer be trusted; answer and
            // hang up.
            Response refusal;
            refusal.status = Status::TooLarge;
            sink(refusal);
            break;
        }
        payload.resize(length);
        if (length > 0
            && !readAll(connection->fd, payload.data(), length))
            break; // truncated frame / disconnect
        server_->submitFrame(payload.data(), payload.size(), sink);
    }

    {
        std::lock_guard<std::mutex> lock(connection->mutex);
        connection->closed = true;
    }
    connection->cv.notify_all();
}

void
TcpTransport::writerLoop(std::shared_ptr<Connection> connection)
{
    for (;;) {
        std::vector<std::uint8_t> frame;
        {
            std::unique_lock<std::mutex> lock(connection->mutex);
            connection->cv.wait(lock, [&] {
                return connection->closed
                       || !connection->outbound.empty();
            });
            if (connection->outbound.empty()) {
                // closed and drained
                return;
            }
            frame = std::move(connection->outbound.front());
            connection->outbound.pop_front();
        }
        if (!writeAll(connection->fd, frame.data(), frame.size())) {
            std::lock_guard<std::mutex> lock(connection->mutex);
            connection->closed = true;
            droppedReplies_.fetch_add(connection->outbound.size());
            connection->outbound.clear();
            return;
        }
    }
}

// ----------------------------------------------------------------------
// TcpClient
// ----------------------------------------------------------------------

TcpClient::TcpClient(std::uint16_t port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    UNCERTAIN_REQUIRE(fd_ >= 0, "serve: cannot create client socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr)
        != 0) {
        ::close(fd_);
        fd_ = -1;
        UNCERTAIN_REQUIRE(false, "serve: cannot connect to localhost");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

TcpClient::~TcpClient()
{
    closeAbruptly();
}

void
TcpClient::send(const Request& request)
{
    const auto frame = encodeRequest(request);
    sendBytes(frame.data(), frame.size());
}

void
TcpClient::sendBytes(const void* data, std::size_t size)
{
    UNCERTAIN_REQUIRE(fd_ >= 0, "serve: client socket is closed");
    UNCERTAIN_REQUIRE(
        writeAll(fd_, static_cast<const std::uint8_t*>(data), size),
        "serve: client write failed");
}

bool
TcpClient::receive(Response& out, std::chrono::milliseconds timeout)
{
    if (fd_ < 0)
        return false;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
        // A complete frame buffered already?
        if (buffer_.size() >= 4) {
            const std::uint32_t length = readU32Le(buffer_.data());
            if (buffer_.size() >= 4 + length) {
                const bool ok = decodeResponse(buffer_.data() + 4,
                                               length, out);
                buffer_.erase(buffer_.begin(),
                              buffer_.begin() + 4 + length);
                return ok;
            }
        }
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        if (remaining.count() <= 0)
            return false;
        pollfd pfd{fd_, POLLIN, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(remaining.count()));
        if (ready <= 0)
            return false;
        std::uint8_t chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false; // server hung up
        buffer_.insert(buffer_.end(), chunk, chunk + n);
    }
}

Response
TcpClient::call(const Request& request,
                std::chrono::milliseconds timeout)
{
    send(request);
    Response response;
    UNCERTAIN_REQUIRE(receive(response, timeout),
                      "serve: tcp call timed out or reply frame "
                      "failed to decode");
    return response;
}

void
TcpClient::closeAbruptly()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace serve
} // namespace uncertain
