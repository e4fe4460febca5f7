#include "rodain/net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "rodain/common/diag.hpp"
#include "rodain/common/serialization.hpp"

namespace rodain::net {

namespace {
constexpr std::size_t kMaxFrame = 64 * 1024 * 1024;

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}
}  // namespace

// ------------------------------------------------------------- channel ---

TcpChannel::TcpChannel(int fd) : fd_(fd) { set_nodelay(fd_); }

std::unique_ptr<TcpChannel> TcpChannel::adopt(int fd) {
  return std::unique_ptr<TcpChannel>(new TcpChannel(fd));
}

Result<std::unique_ptr<TcpChannel>> TcpChannel::connect(const std::string& host,
                                                        std::uint16_t port,
                                                        Duration timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::error(ErrorCode::kIoError, "socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::error(ErrorCode::kInvalidArgument, "bad address " + host);
  }

  // Non-blocking connect with a poll timeout.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, static_cast<int>(timeout.to_ms()));
    if (rc == 1) {
      int err = 0;
      socklen_t len = sizeof err;
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      rc = err == 0 ? 0 : -1;
    } else {
      rc = -1;
    }
  }
  if (rc != 0) {
    ::close(fd);
    return Status::error(ErrorCode::kUnavailable,
                         "connect to " + host + " failed");
  }
  ::fcntl(fd, F_SETFL, flags);
  return adopt(fd);
}

TcpChannel::~TcpChannel() {
  close();
  if (reader_.joinable()) reader_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpChannel::set_message_handler(MessageHandler handler) {
  std::lock_guard lock(handler_mutex_);
  on_message_ = std::move(handler);
}

void TcpChannel::set_disconnect_handler(DisconnectHandler handler) {
  std::lock_guard lock(handler_mutex_);
  on_disconnect_ = std::move(handler);
}

void TcpChannel::start() {
  if (!reader_.joinable()) {
    reader_ = std::thread([this] { reader_loop(); });
  }
}

Status TcpChannel::send(std::vector<std::byte> frame) {
  if (!connected()) return Status::error(ErrorCode::kUnavailable, "closed");
  if (frame.size() > kMaxFrame) {
    return Status::error(ErrorCode::kInvalidArgument, "frame too large");
  }
  ByteWriter header;
  header.put_u32(static_cast<std::uint32_t>(frame.size()));
  header.put_u32(crc32c(frame));

  std::lock_guard lock(write_mutex_);
  // Header and payload leave in one sendmsg: with TCP_NODELAY, two send()
  // calls go out as two segments and can wake the peer's reader twice.
  iovec iov[2] = {
      {const_cast<std::byte*>(header.view().data()), header.view().size()},
      {frame.data(), frame.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  std::size_t left = header.view().size() + frame.size();
  bool sent = true;
  while (left > 0) {
    const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      sent = false;
      break;
    }
    // Partial write: skip the iovecs (and the part of one) already sent.
    auto n = static_cast<std::size_t>(w);
    left -= n;
    while (n > 0) {
      iovec& head = *msg.msg_iov;
      const std::size_t take = std::min(n, head.iov_len);
      head.iov_base = static_cast<std::byte*>(head.iov_base) + take;
      head.iov_len -= take;
      n -= take;
      if (head.iov_len == 0) {
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
    }
  }
  if (!sent) {
    // Do NOT invoke the disconnect handler from here: send() is routinely
    // called under higher-level locks the handler needs (self-deadlock).
    // Flag the channel and wake the reader thread, which delivers the
    // disconnect notification from its own context.
    if (connected_.exchange(false, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
    return Status::error(ErrorCode::kUnavailable, "send failed");
  }
  return Status::ok();
}

bool TcpChannel::read_exact(std::byte* dst, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd_, dst, n, 0);
    if (r == 0) return false;  // orderly shutdown
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    dst += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

void TcpChannel::reader_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::byte header[8];
    if (!read_exact(header, sizeof header)) break;
    ByteReader hr(std::span<const std::byte>{header, sizeof header});
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    (void)hr.get_u32(len);
    (void)hr.get_u32(crc);
    if (len > kMaxFrame) {
      RODAIN_ERROR("tcp: oversized frame (%u bytes), closing", len);
      break;
    }
    std::vector<std::byte> payload(len);
    if (!read_exact(payload.data(), payload.size())) break;
    if (crc32c(payload) != crc) {
      RODAIN_ERROR("tcp: frame crc mismatch, closing");
      break;
    }
    MessageHandler handler;
    {
      std::lock_guard lock(handler_mutex_);
      handler = on_message_;
    }
    if (handler) handler(std::move(payload));
  }
  mark_disconnected();
}

void TcpChannel::mark_disconnected() {
  connected_.store(false, std::memory_order_release);
  if (disconnect_notified_.exchange(true, std::memory_order_acq_rel)) return;
  DisconnectHandler handler;
  {
    std::lock_guard lock(handler_mutex_);
    handler = on_disconnect_;
  }
  if (handler) handler();
}

void TcpChannel::close() {
  stopping_.store(true, std::memory_order_release);
  if (connected_.exchange(false, std::memory_order_acq_rel)) {
    // shutdown() unblocks the reader thread; the fd itself is closed in the
    // destructor, after the reader has joined, so it is never reused while
    // a recv() is in flight.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

// -------------------------------------------------------------- server ---

TcpServer::TcpServer(int fd, std::uint16_t port, AcceptHandler on_accept)
    : listen_fd_(fd), port_(port), on_accept_(std::move(on_accept)) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

Result<std::unique_ptr<TcpServer>> TcpServer::listen(std::uint16_t port,
                                                     AcceptHandler on_accept) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::error(ErrorCode::kIoError, "socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::error(ErrorCode::kIoError,
                         std::string("bind/listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return std::unique_ptr<TcpServer>(
      new TcpServer(fd, ntohs(addr.sin_port), std::move(on_accept)));
}

TcpServer::~TcpServer() {
  stop();
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
}

void TcpServer::stop() {
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
}

void TcpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down
    }
    if (on_accept_) on_accept_(TcpChannel::adopt(fd));
  }
}

}  // namespace rodain::net
